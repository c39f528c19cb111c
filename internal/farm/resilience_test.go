package farm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/core"
)

// chaosSpec arms every injection site aggressively but capped at one fault
// per (site, key): the worst case per cell is three failed attempts (kill,
// panic, stall), so a retry budget of 3 is guaranteed to converge.
func chaosSpec(seed int64) *chaos.Spec {
	return &chaos.Spec{
		Seed: seed,
		Probability: map[chaos.Site]float64{
			chaos.SiteStoreRead:   0.9,
			chaos.SiteStoreWrite:  0.9,
			chaos.SiteWorkerPanic: 0.9,
			chaos.SiteWorkerKill:  0.9,
			chaos.SiteSimStall:    0.9,
		},
		MaxPerKey: 1,
	}
}

// TestChaosSweepConvergesToCleanCorpus is the chaos determinism gate: a
// sweep under injected worker kills, panics, simulated stalls, bit-flipped
// reads, and failed writes must complete and emit a corpus byte-identical
// to the chaos-free sweep — at any worker count.
func TestChaosSweepConvergesToCleanCorpus(t *testing.T) {
	cfgs := testJob(t)

	clean, _, err := New(openTestStore(t), Options{Parallel: 2}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var cleanBuf bytes.Buffer
	if _, _, err := WriteCorpus(&cleanBuf, cfgs, clean); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4} {
		in := chaos.New(chaosSpec(42))
		res, stats, err := New(openTestStore(t), Options{
			Parallel: workers,
			Retries:  3,
			Chaos:    in,
		}).Run(cfgs)
		if err != nil {
			t.Fatalf("parallel=%d: chaos sweep failed: %v", workers, err)
		}
		if in.Injected() == 0 {
			t.Fatalf("parallel=%d: chaos run injected nothing; the gate proved nothing", workers)
		}
		if stats.Retried == 0 {
			t.Fatalf("parallel=%d: no retries under chaos; worker sites never fired", workers)
		}
		if stats.Quarantined != 0 {
			t.Fatalf("parallel=%d: %d cells quarantined; retry budget should converge", workers, stats.Quarantined)
		}
		var buf bytes.Buffer
		rows, skipped, err := WriteCorpus(&buf, cfgs, res)
		if err != nil {
			t.Fatal(err)
		}
		if rows != len(cfgs) || skipped != 0 {
			t.Fatalf("parallel=%d: chaos corpus rows=%d skipped=%d, want %d/0", workers, rows, skipped, len(cfgs))
		}
		if !bytes.Equal(cleanBuf.Bytes(), buf.Bytes()) {
			t.Fatalf("parallel=%d: chaos corpus differs from the clean corpus", workers)
		}
	}
}

// TestRetriesHealInjectedKills: with probability-1 kills capped at one per
// cell, every cell fails exactly once and succeeds on retry.
func TestRetriesHealInjectedKills(t *testing.T) {
	cfgs := testJob(t)
	in := chaos.New(&chaos.Spec{
		Seed:        1,
		Probability: map[chaos.Site]float64{chaos.SiteWorkerKill: 1},
		MaxPerKey:   1,
	})
	_, stats, err := New(openTestStore(t), Options{
		Parallel: 2, Retries: 1, Chaos: in,
	}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	// 4 unique addresses simulate (the duplicate is a single-flight hit),
	// each killed once then healed.
	if stats.Retried != 4 || stats.Misses != 4 {
		t.Fatalf("retried=%d misses=%d, want 4/4", stats.Retried, stats.Misses)
	}
}

// TestQuarantineBoundsPoisonedCells: a cell that fails every attempt is
// quarantined with diagnostics while the sweep completes; the quarantine
// budget is hard — a second poisoned cell beyond the limit fails the run.
func TestQuarantineBoundsPoisonedCells(t *testing.T) {
	s := openTestStore(t)
	cfgs := testJob(t)[:3]
	cfgs[1].Trace = nil // uncacheable and unrunnable: poisoned

	res, stats, err := New(s, Options{
		Parallel: 2, Retries: 1, QuarantineLimit: 1,
	}).Run(cfgs)
	if err != nil {
		t.Fatalf("sweep with one quarantined cell must succeed, got: %v", err)
	}
	if res[0] == nil || res[2] == nil || res[1] != nil {
		t.Fatalf("results [%t %t %t], want healthy cells present and the poisoned one nil",
			res[0] != nil, res[1] != nil, res[2] != nil)
	}
	if stats.Quarantined != 1 || stats.Errors != 0 {
		t.Fatalf("quarantined=%d errors=%d, want 1/0", stats.Quarantined, stats.Errors)
	}

	// The quarantine manifest names the cell, its attempts, and per-attempt
	// diagnostics — never silent truncation.
	recs, err := s.QuarantinedJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("quarantine manifest has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Name != cfgs[1].Name() || rec.Attempts != 2 || len(rec.Errors) != 2 {
		t.Fatalf("record %+v, want name=%q attempts=2 errors=2", rec, cfgs[1].Name())
	}
	for _, line := range rec.Errors {
		if strings.ContainsRune(line, '\n') {
			t.Fatalf("record error %q is not a single line", line)
		}
	}

	// The corpus writer reports the hole rather than hiding it.
	var buf bytes.Buffer
	rows, skipped, err := WriteCorpus(&buf, cfgs, res)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 2 || skipped != 1 {
		t.Fatalf("corpus rows=%d skipped=%d, want 2/1", rows, skipped)
	}

	// Two poisoned cells against a budget of one: bounded degradation means
	// the second failure surfaces.
	cfgs2 := testJob(t)[:3]
	cfgs2[0].Trace = nil
	cfgs2[1].Trace = nil
	_, stats2, err := New(openTestStore(t), Options{
		Parallel: 1, QuarantineLimit: 1,
	}).Run(cfgs2)
	if err == nil {
		t.Fatal("second poisoned cell beyond the quarantine limit did not fail the run")
	}
	if stats2.Quarantined != 1 || stats2.Errors != 1 {
		t.Fatalf("quarantined=%d errors=%d, want 1/1", stats2.Quarantined, stats2.Errors)
	}
}

// TestQuarantineRecordsCacheableCells: a poisoned cacheable cell's record
// carries its content address, and duplicate cells of one address share the
// quarantine decision through single-flight.
func TestQuarantineRecordsCacheableCells(t *testing.T) {
	s := openTestStore(t)
	cfgs := testJob(t) // last cell duplicates cell 0
	in := chaos.New(&chaos.Spec{
		Seed:        5,
		Probability: map[chaos.Site]float64{chaos.SiteWorkerKill: 1},
		MaxPerKey:   100, // outlasts any retry budget: every attempt dies
	})
	res, stats, err := New(s, Options{
		Parallel: 2, Retries: 1, QuarantineLimit: len(cfgs), Chaos: in,
	}).Run(cfgs)
	if err != nil {
		t.Fatalf("fully-quarantined sweep must still complete: %v", err)
	}
	if stats.Quarantined != len(cfgs) {
		t.Fatalf("quarantined %d cells, want %d (duplicates included)", stats.Quarantined, len(cfgs))
	}
	for i, r := range res {
		if r != nil {
			t.Fatalf("cell %d produced a result while every attempt was killed", i)
		}
	}
	recs, err := s.QuarantinedJobs()
	if err != nil {
		t.Fatal(err)
	}
	// 4 unique addresses: the duplicate shares its flight's record.
	if len(recs) != 4 {
		t.Fatalf("quarantine manifest has %d records, want 4 unique cells", len(recs))
	}
	for _, rec := range recs {
		if rec.Addr == "" {
			t.Fatalf("cacheable cell %q quarantined without its address", rec.Name)
		}
	}
}

// TestJobTimeoutTripsOnWedgedCells: a simulation that never returns is cut
// off by the wall-clock budget and quarantined instead of hanging the sweep.
func TestJobTimeoutTripsOnWedgedCells(t *testing.T) {
	// started orders the abandoned goroutine's read of runSim before the
	// deferred restore below — the budget abandons the goroutine, it does
	// not kill it, so the test must not swap the hook back underneath it.
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	real := runSim
	runSim = func(cfg core.Config) (*core.Result, error) {
		close(started) // single attempt: Retries is 0
		<-release      // wedged until the test ends
		return nil, nil
	}
	defer func() { runSim = real }()
	defer func() { <-started }()

	s := openTestStore(t)
	cfgs := testJob(t)[:1]
	res, stats, err := New(s, Options{
		Parallel: 1, JobTimeout: 5 * time.Millisecond, QuarantineLimit: 1,
	}).Run(cfgs)
	if err != nil {
		t.Fatalf("wedged cell must quarantine, not fail: %v", err)
	}
	if res[0] != nil || stats.Quarantined != 1 {
		t.Fatalf("res=%v quarantined=%d, want nil/1", res[0], stats.Quarantined)
	}
	recs, err := s.QuarantinedJobs()
	if err != nil || len(recs) != 1 {
		t.Fatalf("quarantine records %v (err %v), want exactly one", recs, err)
	}
	if !strings.Contains(recs[0].Errors[0], "wall-clock budget") {
		t.Fatalf("record %q does not name the timeout", recs[0].Errors[0])
	}
}

// TestScrubQuarantinesCorruptObjects: the scrubber detects a flipped bit,
// moves the object aside idempotently, skips in-flight temps, and the next
// sweep re-simulates and heals the address.
func TestScrubQuarantinesCorruptObjects(t *testing.T) {
	s := openTestStore(t)
	cfgs := testJob(t)
	if _, _, err := New(s, Options{Parallel: 2}).Run(cfgs); err != nil {
		t.Fatal(err)
	}

	addr, err := Address(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.entryPath(addr))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(s.entryPath(addr), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A writer mid-rename: the scrubber must leave it alone.
	tempPath := filepath.Join(filepath.Dir(s.entryPath(addr)), ".put-inflight")
	if err := os.WriteFile(tempPath, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 4 || rep.Corrupt != 1 || rep.Quarantined != 1 || rep.Healthy != 3 || rep.InFlight != 1 {
		t.Fatalf("scrub report %+v, want checked=4 corrupt=1 quarantined=1 healthy=3 inflight=1", rep)
	}
	if _, err := os.Stat(tempPath); err != nil {
		t.Fatal("scrub removed an in-flight temp file")
	}
	if _, err := os.Stat(filepath.Join(s.root, "quarantine", "objects", addr)); err != nil {
		t.Fatal("corrupt object not in quarantine")
	}
	if s.Has(addr) {
		t.Fatal("corrupt object still readable at its address")
	}

	// Idempotent: a second pass finds a clean store.
	rep2, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Corrupt != 0 || rep2.Checked != 3 {
		t.Fatalf("re-scrub report %+v, want corrupt=0 checked=3", rep2)
	}

	// The quarantined address heals on the next sweep.
	_, stats, err := New(s, Options{Parallel: 2}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Misses != 1 {
		t.Fatalf("post-scrub sweep simulated %d cells, want exactly the quarantined one", stats.Misses)
	}
	if !s.Has(addr) {
		t.Fatal("address not healed after re-run")
	}
}

// TestScrubConcurrentWithWriters: scrubbing while writers install entries
// never loses a valid object — every address written before or during the
// scrub verifies afterwards.
func TestScrubConcurrentWithWriters(t *testing.T) {
	s := openTestStore(t)
	rec := testRecord()
	addrOf := func(i int) string {
		return AddressOf(fmt.Sprintf("writer-cell-%d", i))
	}

	const n = 64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Write every address at least once (overlapping the scrub passes),
		// then keep rewriting until told to stop.
		for i := 0; ; i++ {
			if i >= n {
				select {
				case <-stop:
					return
				default:
				}
			}
			if err := s.Put(addrOf(i%n), rec); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for pass := 0; pass < 20; pass++ {
		if _, err := s.Scrub(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 {
		t.Fatalf("scrub vs writers quarantined %d valid objects", rep.Corrupt)
	}
	for i := 0; i < n; i++ {
		if !s.Has(addrOf(i)) {
			t.Fatalf("address %d lost during concurrent scrub", i)
		}
	}
}

// TestQuarantineObjectIdempotent: quarantining one object twice (sibling
// scrubbers racing) succeeds both times and leaves one quarantined copy.
func TestQuarantineObjectIdempotent(t *testing.T) {
	s := openTestStore(t)
	addr := AddressOf("idempotent")
	if err := s.Put(addr, testRecord()); err != nil {
		t.Fatal(err)
	}
	if !s.quarantineObject(s.entryPath(addr)) {
		t.Fatal("first quarantine failed")
	}
	if !s.quarantineObject(s.entryPath(addr)) {
		t.Fatal("second quarantine (source already moved) reported failure")
	}
	if _, err := os.Stat(filepath.Join(s.root, "quarantine", "objects", addr)); err != nil {
		t.Fatal("quarantined copy missing")
	}
}
