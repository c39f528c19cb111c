package experiments

import (
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/par"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/workload"
)

// warmRunAllocs returns the allocations of one core.Run of cfg after a
// warm-up run has lowered the trace and filled the run pools. Chooser
// construction fans out over par.ForChunks, one goroutine per worker, so
// the pool is fixed at two workers: the count then reads the same on every
// host.
func warmRunAllocs(t *testing.T, cfg core.Config) float64 {
	t.Helper()
	defer par.SetWorkers(par.SetWorkers(2))
	run := func() {
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("run did not complete")
		}
	}
	run()
	return testing.AllocsPerRun(20, run)
}

// TestWarmRunAllocs pins what a warm run of a quick paper cell allocates:
// its result and little else. The machine comes built from the shared
// cache, the random streams reseeded from the stream pool, and the engine,
// fabric, chooser and replay storage from their pools. One allocation more
// than the pinned count fails, so a change that puts set-up work back on
// the per-run path shows here on any host.
func TestWarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation moves allocation counts")
	}
	r := quickRunner(t)
	uniform, err := r.Background(workload.UniformRandom, "FB")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		app  string
		cell core.Cell
		bg   *workload.BackgroundConfig
		want float64
	}{
		{"CR rand-min", "CR", core.Cell{Placement: placement.RandomNode, Routing: routing.Minimal}, nil, 42},
		{"CR rand-adp", "CR", core.Cell{Placement: placement.RandomNode, Routing: routing.Adaptive}, nil, 42},
		{"FB rand-adp uniform", "FB", core.Cell{Placement: placement.RandomNode, Routing: routing.Adaptive}, uniform, 109},
	} {
		cfg, err := r.CellConfig(tc.app, tc.cell, 1, tc.bg)
		if err != nil {
			t.Fatal(err)
		}
		if got := warmRunAllocs(t, cfg); got != tc.want {
			t.Errorf("%s: %v allocations a warm run, want %v", tc.name, got, tc.want)
		}
	}
}
