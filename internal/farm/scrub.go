package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Scrubbing and quarantine.
//
// The store is a cache over deterministic simulations, so its failure modes
// are cheap to repair: a corrupt object costs one re-run, a poisoned job
// costs its absence from one report. The scrubber makes the first repair
// proactive — verify every object, move the corrupt ones aside so the next
// sweep re-simulates them — and the quarantine directory makes the second
// auditable: every abandoned job leaves a record naming the cell, its
// attempts, and one diagnostic line per failure.
//
// Layout under the store root:
//
//	quarantine/objects/<addr>   corrupt entries moved aside by Scrub
//	quarantine/jobs/<id>.json   QuarantineRecord per poisoned job
//
// Scrub is safe against concurrent writers by construction, not locking:
// writers install entries with temp-file + rename, so every object the
// scrubber can open is a complete write, and in-flight temps (dot-prefixed)
// are skipped outright. The one race — a writer healing an entry between
// the scrubber's verify and its rename — moves a fresh entry into
// quarantine, costing a re-run, never a wrong result.

// ScrubReport summarizes one integrity pass over the object store.
type ScrubReport struct {
	Checked     int // objects examined
	Healthy     int // objects that verified end to end
	Corrupt     int // objects that failed verification
	Quarantined int // corrupt objects moved to quarantine (== Corrupt unless a move failed)
	InFlight    int // dot-prefixed temp files skipped (writers mid-rename)
	Vanished    int // objects listed but gone before reading (concurrent churn)
}

func (r ScrubReport) String() string {
	return fmt.Sprintf("scrub: %d checked, %d healthy, %d corrupt, %d quarantined, %d in-flight, %d vanished",
		r.Checked, r.Healthy, r.Corrupt, r.Quarantined, r.InFlight, r.Vanished)
}

// Scrub verifies every object in the store and quarantines the corrupt
// ones. Quarantined addresses become cache misses, so the next sweep
// re-simulates and heals them. Scrub reads files directly — chaos read
// injection does not apply — because its job is to judge what is actually
// on disk.
func (s *Store) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	objects := filepath.Join(s.root, "objects")
	fans, err := os.ReadDir(objects)
	if err != nil {
		if os.IsNotExist(err) {
			return rep, nil
		}
		return rep, fmt.Errorf("farm: scrub: %w", err)
	}
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		dir := filepath.Join(objects, fan.Name())
		entries, err := os.ReadDir(dir)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return rep, fmt.Errorf("farm: scrub %s: %w", fan.Name(), err)
		}
		for _, ent := range entries {
			name := ent.Name()
			if strings.HasPrefix(name, ".") {
				// A writer's temp file: the object it will become is not
				// installed yet, so there is nothing to judge (or delete).
				rep.InFlight++
				continue
			}
			path := filepath.Join(dir, name)
			data, err := os.ReadFile(path)
			if err != nil {
				if os.IsNotExist(err) {
					rep.Vanished++
					continue
				}
				return rep, fmt.Errorf("farm: scrub %s: %w", short(name), err)
			}
			rep.Checked++
			if _, err := verifyEntry(name, data); err == nil {
				rep.Healthy++
				continue
			}
			rep.Corrupt++
			if s.quarantineObject(path) {
				rep.Quarantined++
			}
		}
	}
	return rep, nil
}

// quarantineObject moves the corrupt object file at path to
// quarantine/objects/<name>. The path is the file's own, not one derived
// from its name: a stray file need not sit in its name's fan-out directory.
// It is idempotent under concurrent scrubbers: rename replaces an existing
// quarantined copy, and a source already moved by a sibling counts as done.
func (s *Store) quarantineObject(path string) bool {
	qdir := filepath.Join(s.root, "quarantine", "objects")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return false
	}
	err := os.Rename(path, filepath.Join(qdir, filepath.Base(path)))
	if err != nil && !os.IsNotExist(err) {
		return false
	}
	return true
}

// QuarantineRecord documents one poisoned job: the cell that exhausted its
// retry budget and was dropped from a sweep's results. Records carry no
// timestamps or stack traces, so a rerun of the same failure writes the
// same record.
type QuarantineRecord struct {
	// Addr is the cell's content address; empty for uncacheable cells.
	Addr string `json:"addr,omitempty"`
	// Name is the cell's human-readable config name.
	Name string `json:"name"`
	// Attempts is how many times the cell ran before being abandoned.
	Attempts int `json:"attempts"`
	// Errors holds the headline of each failed attempt, in order.
	Errors []string `json:"errors"`
}

// id keys the record's file: the address when there is one, else a hash of
// the name — either way stable, so re-quarantining is an overwrite.
func (r *QuarantineRecord) id() string {
	if r.Addr != "" {
		return r.Addr
	}
	sum := sha256.Sum256([]byte(r.Name))
	return "name-" + hex.EncodeToString(sum[:8])
}

// QuarantineJob writes a poisoned-job record atomically under
// quarantine/jobs/. Re-quarantining the same cell overwrites its record.
func (s *Store) QuarantineJob(rec *QuarantineRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = s.writeAtomic(filepath.Join(s.root, "quarantine", "jobs", rec.id()+".json"), append(data, '\n'))
	}
	if err != nil {
		return fmt.Errorf("farm: quarantine %s: %w", rec.Name, err)
	}
	return nil
}

// QuarantinedJobs loads every poisoned-job record, sorted by cell name then
// id — the quarantine manifest a partial report points at.
func (s *Store) QuarantinedJobs() ([]QuarantineRecord, error) {
	dir := filepath.Join(s.root, "quarantine", "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("farm: quarantine manifest: %w", err)
	}
	var recs []QuarantineRecord
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), ".") || !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, fmt.Errorf("farm: quarantine manifest: %w", err)
		}
		var rec QuarantineRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("farm: quarantine record %s: %w", ent.Name(), err)
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Name != recs[j].Name {
			return recs[i].Name < recs[j].Name
		}
		return recs[i].id() < recs[j].id()
	})
	return recs, nil
}
