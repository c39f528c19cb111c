// Determinism suite for the dependency-graph collective workloads: the
// graph executor must be exactly as reproducible as the flat replayer it
// replaced. Every knob that is contractually observation-only — re-running,
// executor worker counts, the invariant auditor, the allocation pools —
// must leave a collective cell's full Result digest (clocks, events, comm
// times, link stats) bit-identical.
package topotest_test

import (
	"fmt"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/farm"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest/policytest"
	"dragonfly/internal/trace"
)

// collectiveGraphs builds the suite's collective workloads at the catalog's
// mini size: a pipelined ring all-reduce (chained deps, two-predecessor
// joins) and a windowed MoE all-to-all (fan-in joins, injection windowing).
func collectiveGraphs(t *testing.T) map[string]*trace.Graph {
	t.Helper()
	graphs := map[string]*trace.Graph{}
	for _, app := range []string{"RING", "MOE"} {
		_, g, err := trace.BuildApp(app, trace.Mini)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		graphs[app] = g
	}
	return graphs
}

func collectiveConfig(t *testing.T, preset string, g *trace.Graph, place placement.Policy) core.Config {
	t.Helper()
	m, err := topology.Preset(preset)
	if err != nil {
		t.Fatalf("preset %s: %v", preset, err)
	}
	return core.Config{
		Topology:       m,
		Params:         network.DefaultParams(),
		Placement:      place,
		Routing:        routing.Adaptive,
		Graph:          g,
		Seed:           31,
		WatchdogEvents: 10_000_000_000,
	}
}

// TestCollectiveDeterminism proves, per machine x collective x placement
// cell, that a rerun, the auditor, and disabled pooling all reproduce the
// baseline digest exactly.
func TestCollectiveDeterminism(t *testing.T) {
	graphs := collectiveGraphs(t)
	for _, preset := range []string{"mini", "dfplus-mini"} {
		for _, app := range []string{"RING", "MOE"} {
			for _, place := range []placement.Policy{placement.Contiguous, placement.RandomNode} {
				preset, app, place := preset, app, place
				t.Run(fmt.Sprintf("%s/%s/%s", preset, app, place), func(t *testing.T) {
					t.Parallel()
					base := policytest.SimDigest(t, collectiveConfig(t, preset, graphs[app], place))

					if got := policytest.SimDigest(t, collectiveConfig(t, preset, graphs[app], place)); got != base {
						t.Errorf("rerun digest %s, want %s", got, base)
					}
					audited := collectiveConfig(t, preset, graphs[app], place)
					audited.Audit = true
					if got := policytest.SimDigest(t, audited); got != base {
						t.Errorf("audited digest %s, want %s — the auditor perturbed the run", got, base)
					}
					unpooled := collectiveConfig(t, preset, graphs[app], place)
					unpooled.Params.NoPacketPool = true
					unpooled.Params.Route.NoCache = true
					if got := policytest.SimDigest(t, unpooled); got != base {
						t.Errorf("pooling-off digest %s, want %s — the pools leaked into results", got, base)
					}
				})
			}
		}
	}
}

// TestCollectiveRunBatchWorkers proves worker-count independence: the same
// collective grid through the farm executor (what dragonfly.RunBatch runs)
// at 1, 2, and 4 workers produces digest-identical results in identical
// order.
func TestCollectiveRunBatchWorkers(t *testing.T) {
	graphs := collectiveGraphs(t)
	var cfgs []core.Config
	for _, preset := range []string{"mini", "dfplus-mini"} {
		for _, app := range []string{"RING", "MOE"} {
			for _, place := range []placement.Policy{placement.Contiguous, placement.RandomNode} {
				cfgs = append(cfgs, collectiveConfig(t, preset, graphs[app], place))
			}
		}
	}
	runBatch := func(workers int) ([]*core.Result, error) {
		results, _, err := farm.New(nil, farm.Options{Parallel: workers}).Run(cfgs)
		return results, err
	}
	sequential, err := runBatch(1)
	if err != nil {
		t.Fatalf("RunBatch(1): %v", err)
	}
	base := make([]string, len(sequential))
	for i, res := range sequential {
		base[i] = policytest.ResultDigest(res)
	}
	for _, workers := range []int{2, 4} {
		results, err := runBatch(workers)
		if err != nil {
			t.Fatalf("RunBatch(%d): %v", workers, err)
		}
		for i, res := range results {
			if got := policytest.ResultDigest(res); got != base[i] {
				t.Errorf("workers=%d cell %d (%s): digest %s, want %s",
					workers, i, cfgs[i].Name(), got, base[i])
			}
		}
	}
}
