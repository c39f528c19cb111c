package farm

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/trace"
)

// TestNilStoreFarm: a Farm without a store simulates each unique address
// once, reproduces core.Run exactly, and answers a later Run from its memo
// without counting or reporting the cells again.
func TestNilStoreFarm(t *testing.T) {
	cfgs := testJob(t) // last cell duplicates cell 0
	var events []Progress
	f := New(nil, Options{Parallel: 2, Progress: func(ev Progress) { events = append(events, ev) }})

	first, stats, err := f.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Misses != 4 || stats.Hits != 1 || stats.Uncacheable != 0 {
		t.Fatalf("first run misses=%d hits=%d uncacheable=%d, want 4/1/0", stats.Misses, stats.Hits, stats.Uncacheable)
	}
	if len(events) != len(cfgs) {
		t.Fatalf("first run fired %d progress events, want %d", len(events), len(cfgs))
	}
	for _, ev := range events {
		if ev.Result != first[ev.Index] || ev.Done < 1 || ev.Total != len(cfgs) {
			t.Fatalf("progress event %+v does not describe cell %d", ev, ev.Index)
		}
	}
	for i, cfg := range cfgs {
		want, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(RecordOf(first[i]), RecordOf(want)) {
			t.Errorf("cell %d: farm result diverges from core.Run", i)
		}
	}
	if first[len(cfgs)-1] != first[0] {
		t.Error("duplicate cell did not share its flight's result")
	}

	events = nil
	again, stats, err := f.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 0 || stats.Misses != 0 || stats.InShard != len(cfgs) {
		t.Fatalf("memo run counted hits=%d misses=%d in-shard=%d, want 0/0/%d", stats.Hits, stats.Misses, stats.InShard, len(cfgs))
	}
	if len(events) != 0 {
		t.Fatalf("memo run fired %d progress events, want 0", len(events))
	}
	for i := range cfgs {
		if again[i] != first[i] {
			t.Errorf("cell %d: memo returned a different result object", i)
		}
	}
}

// TestConcurrentRunsShareOneMemo: goroutines running overlapping jobs on
// one Farm simulate every address exactly once between them, count and
// report each cell in exactly one Run, and share result objects. Run under
// -race this also proves the per-Run bookkeeping is goroutine-safe.
func TestConcurrentRunsShareOneMemo(t *testing.T) {
	cfgs := testJob(t)[:4]
	for _, store := range []*Store{nil, openTestStore(t)} {
		var mu sync.Mutex
		reported := map[string]int{}
		f := New(store, Options{Parallel: 2, Progress: func(ev Progress) {
			mu.Lock()
			reported[ev.Addr]++
			mu.Unlock()
		}})
		const goroutines = 6
		results := make([][]*core.Result, goroutines)
		stats := make([]Stats, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Every goroutine runs the whole job, rotated by g so the
				// runs collide on different cells first.
				n := len(cfgs)
				job := make([]core.Config, n)
				for i := range job {
					job[i] = cfgs[(i+g)%n]
				}
				res, st, err := f.Run(job)
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = make([]*core.Result, n)
				for i, r := range res {
					results[g][(i+g)%n] = r
				}
				stats[g] = st
			}(g)
		}
		wg.Wait()
		var total Stats
		for _, st := range stats {
			total.Add(st)
		}
		if total.Misses != len(cfgs) || total.Hits != 0 {
			t.Fatalf("store=%t: %d simulations and %d hits across runs, want %d/0", store != nil, total.Misses, total.Hits, len(cfgs))
		}
		if len(reported) != len(cfgs) {
			t.Fatalf("store=%t: %d addresses reported, want %d", store != nil, len(reported), len(cfgs))
		}
		for addr, n := range reported {
			if n != 1 {
				t.Fatalf("store=%t: address %.12s reported %d times, want once", store != nil, addr, n)
			}
		}
		for g := 1; g < goroutines; g++ {
			for i := range cfgs {
				if results[g][i] != results[0][i] {
					t.Fatalf("store=%t: goroutine %d cell %d got its own result object", store != nil, g, i)
				}
			}
		}
	}
}

// TestEncodeDoesNotPinWorkloads: lowering and encoding a workload memoize
// on the workload itself, so a trace or graph nobody references any more is
// garbage collected — a process-wide memo keyed by pointer would keep every
// encoded workload alive for the life of the process.
func TestEncodeDoesNotPinWorkloads(t *testing.T) {
	collected := make(chan string, 2)
	func() {
		tr := testTrace(t)
		tr.Graph()
		if _, err := Encode(core.MiniConfig(tr, core.Cell{Placement: placement.Contiguous, Routing: routing.Minimal}, 1)); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(tr, func(*trace.Trace) { collected <- "trace" })

		g, err := trace.RingAllReduce(trace.RingAllReduceConfig{Ranks: 8, Bytes: 64 * trace.KB, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig(t)
		cfg.Trace, cfg.Graph = nil, g
		if _, err := Encode(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(g, func(*trace.Graph) { collected <- "graph" })
	}()
	got := map[string]bool{}
	for i := 0; i < 50 && len(got) < 2; i++ {
		runtime.GC()
		select {
		case what := <-collected:
			got[what] = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	for _, what := range []string{"trace", "graph"} {
		if !got[what] {
			t.Errorf("an encoded %s was never collected: something still references it", what)
		}
	}
}
