package farm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
)

// testJob is a small real sweep: four placement x routing cells on the mini
// machine, one of them audited, plus one deliberate duplicate to exercise
// single-flight.
func testJob(t testing.TB) []core.Config {
	t.Helper()
	tr := testTrace(t)
	cells := []core.Cell{
		{Placement: placement.Contiguous, Routing: routing.Minimal},
		{Placement: placement.Contiguous, Routing: routing.Adaptive},
		{Placement: placement.RandomNode, Routing: routing.Minimal},
		{Placement: placement.RandomNode, Routing: routing.Adaptive},
	}
	var cfgs []core.Config
	for _, cell := range cells {
		cfg := core.MiniConfig(tr, cell, 1)
		cfgs = append(cfgs, cfg)
	}
	cfgs[1].Audit = true
	cfgs = append(cfgs, cfgs[0]) // duplicate of cell 0
	return cfgs
}

// TestFarmColdThenWarm is the farm's core promise: a rerun of a completed
// job performs zero simulations (hit count == cell count) and every
// replayed result is record-identical to the cold one. The store's objects
// are the only record of finished cells: CountCached reads the job's
// progress from them, and a job manifest that earlier versions wrote under
// jobs/ is ignored.
func TestFarmColdThenWarm(t *testing.T) {
	s := openTestStore(t)
	cfgs := testJob(t)
	addrs := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if addrs[i], err = Address(cfg); err != nil {
			t.Fatal(err)
		}
	}
	jobs := filepath.Join(s.Root(), "jobs")
	if _, err := os.Stat(jobs); !os.IsNotExist(err) {
		t.Fatalf("Open created %s (stat: %v)", jobs, err)
	}
	if got := s.CountCached(addrs); got != 0 {
		t.Fatalf("empty store counts %d cached cells", got)
	}

	cold, coldStats, err := New(s, Options{Parallel: 2}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Misses != 4 {
		t.Fatalf("cold run simulated %d cells, want 4 (the unique configs)", coldStats.Misses)
	}
	if coldStats.Hits != 1 {
		t.Fatalf("cold run hit %d cells, want 1 (the in-job duplicate via single-flight)", coldStats.Hits)
	}
	if cold[1].Audit == nil {
		t.Fatal("audited cell lost its audit summary")
	}

	if got := s.CountCached(addrs); got != len(addrs) {
		t.Fatalf("CountCached = %d after a full run, want %d", got, len(addrs))
	}

	// The manifest an earlier dffarm saved after this job, in its format:
	// the job ID (the first 16 hex digits of the SHA-256 of the address
	// list, one address a line), the spec, the cell count and the banked
	// count.
	sum := sha256.Sum256([]byte(strings.Join(addrs, "\n") + "\n"))
	job := hex.EncodeToString(sum[:8])
	manifest := fmt.Sprintf("{\n  \"job\": %q,\n  \"spec\": \"apps=CR\",\n  \"cells\": %d,\n  \"done\": %d\n}\n", job, len(cfgs), len(cfgs))
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobs, job+".json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	warm, warmStats, err := New(s, Options{Parallel: 2}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Misses != 0 {
		t.Fatalf("warm run simulated %d cells, want 0", warmStats.Misses)
	}
	if warmStats.Hits != warmStats.InShard {
		t.Fatalf("warm run hits %d != in-shard cells %d", warmStats.Hits, warmStats.InShard)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(RecordOf(cold[i]), RecordOf(warm[i])) {
			t.Errorf("cell %d: warm replay diverges from cold result", i)
		}
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 || rep.Healthy != 4 {
		t.Fatalf("scrub of a store holding a manifest: %s, want 4 healthy and 0 corrupt", rep)
	}
}

// TestFarmShardsPartitionTheJob: two shard processes over one store must
// split the cells disjointly, and a subsequent unsharded pass replays the
// whole job from cache.
func TestFarmShardsPartitionTheJob(t *testing.T) {
	s := openTestStore(t)
	cfgs := testJob(t)

	res0, stats0, err := New(s, Options{Parallel: 1, Shard: 0, NumShards: 2}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	res1, stats1, err := New(s, Options{Parallel: 1, Shard: 1, NumShards: 2}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if stats0.InShard+stats1.InShard != len(cfgs) {
		t.Fatalf("shards cover %d+%d cells, want %d", stats0.InShard, stats1.InShard, len(cfgs))
	}
	for i := range cfgs {
		has0, has1 := res0[i] != nil, res1[i] != nil
		if has0 == has1 {
			t.Errorf("cell %d: shard coverage not disjoint+complete (shard0=%t shard1=%t)", i, has0, has1)
		}
	}

	full, fullStats, err := New(s, Options{Parallel: 2}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if fullStats.Misses != 0 {
		t.Fatalf("post-shard full pass simulated %d cells, want 0 (resume must be free)", fullStats.Misses)
	}
	for i := range cfgs {
		if full[i] == nil {
			t.Errorf("cell %d missing from the resumed full pass", i)
		}
	}
}

// TestFarmReRunsCorruptEntries: a mangled store entry degrades to a re-run
// that heals the entry; it is never replayed.
func TestFarmReRunsCorruptEntries(t *testing.T) {
	s := openTestStore(t)
	cfgs := testJob(t)[:1]
	if _, _, err := New(s, Options{Parallel: 1}).Run(cfgs); err != nil {
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
	data[len(data)-2] ^= 0x10
	if err := os.WriteFile(s.entryPath(addr), data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, stats, err := New(s, Options{Parallel: 1}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corrupt != 1 || stats.Misses != 1 || stats.Hits != 0 {
		t.Fatalf("corrupt entry handled as corrupt=%d misses=%d hits=%d, want 1/1/0", stats.Corrupt, stats.Misses, stats.Hits)
	}
	if _, err := s.Get(addr); err != nil {
		t.Fatalf("entry not healed after re-run: %v", err)
	}
}

// TestFarmSurfacesCellErrors pins the executor's error contract: a failing
// cell yields the first config-order error while sibling cells still run,
// and the failed cell returns no result and counts once in Stats.Errors.
func TestFarmSurfacesCellErrors(t *testing.T) {
	s := openTestStore(t)
	cfgs := testJob(t)[:3]
	cfgs[1].Trace = nil // Encode fails, so the cell runs uncached and core.Run rejects it

	res, stats, err := New(s, Options{Parallel: 2}).Run(cfgs)
	if err == nil {
		t.Fatal("broken cell did not surface an error")
	}
	if res[0] == nil || res[2] == nil {
		t.Fatal("sibling cells were not attempted after the failure")
	}
	if res[1] != nil {
		t.Fatal("failed cell produced a result")
	}
	if stats.Errors != 1 {
		t.Fatalf("stats.Errors = %d, want 1", stats.Errors)
	}
}

// TestCorpusDeterministic: the corpus emitted from a cold run and from a
// warm replay must be byte-identical — the training data cannot depend on
// whether its rows were simulated or recalled.
func TestCorpusDeterministic(t *testing.T) {
	s := openTestStore(t)
	cfgs := testJob(t)

	cold, _, err := New(s, Options{Parallel: 2}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var coldBuf bytes.Buffer
	rows, skipped, err := WriteCorpus(&coldBuf, cfgs, cold)
	if err != nil {
		t.Fatal(err)
	}
	if rows != len(cfgs) || skipped != 0 {
		t.Fatalf("corpus rows=%d skipped=%d, want %d/0", rows, skipped, len(cfgs))
	}

	warm, _, err := New(s, Options{Parallel: 1}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var warmBuf bytes.Buffer
	if _, _, err := WriteCorpus(&warmBuf, cfgs, warm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldBuf.Bytes(), warmBuf.Bytes()) {
		t.Fatal("cold and warm corpora differ")
	}

	lines := bytes.Split(coldBuf.Bytes(), []byte{'\n'})
	if want := len(CorpusColumns); bytes.Count(lines[0], []byte{','})+1 != want {
		t.Fatalf("header has %d columns, want %d", bytes.Count(lines[0], []byte{','})+1, want)
	}
	// A sharded emission skips the other shard's cells instead of failing.
	partial, _, err := New(s, Options{Parallel: 1, Shard: 0, NumShards: 2}).Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var partBuf bytes.Buffer
	rows, skipped, err = WriteCorpus(&partBuf, cfgs, partial)
	if err != nil {
		t.Fatal(err)
	}
	if rows+skipped != len(cfgs) || skipped == 0 {
		t.Fatalf("sharded corpus rows=%d skipped=%d", rows, skipped)
	}
}
