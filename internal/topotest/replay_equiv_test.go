// Differential replay-equivalence suite: the digests in
// testdata/replay_equivalence.json were generated from the fence-based flat
// replayer (the per-rank op-list walker that predated the dependency-graph
// IR), and the graph executor that replaced it must reproduce them bit for
// bit — simulation clocks, event counts, per-rank communication times, link
// statistics, and drop accounting, across machine x application x placement
// cells under adaptive routing (the RNG-consuming mechanism, so a divergence
// in route-draw order fails too). Refresh (only when a behavior change is
// intended and understood) with:
//
//	UPDATE_EQUIV=1 go test ./internal/topotest -run TestReplayEquivalence
package topotest_test

import (
	"fmt"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest/policytest"
	"dragonfly/internal/trace"
)

const replayEquivFile = "testdata/replay_equivalence.json"

// replayEquivSeed fixes every stream in the suite; changing it invalidates
// the committed digests.
const replayEquivSeed = 23

// replayApps builds the three miniapps at suite scale: small enough that the
// whole grid runs in seconds, large enough that every op kind, the fence
// cadence of each app, and multi-phase matching are exercised.
func replayApps(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	cr, err := trace.CR(trace.CRConfig{Ranks: 24, MessageBytes: 12 * trace.KB})
	if err != nil {
		t.Fatalf("CR: %v", err)
	}
	fb, err := trace.FB(trace.FBConfig{
		X: 3, Y: 3, Z: 3, Iterations: 2,
		MinBytes: 4 * trace.KB, MaxBytes: 32 * trace.KB,
		FarPartners: 1, FarFraction: 0.2, Seed: 1,
	})
	if err != nil {
		t.Fatalf("FB: %v", err)
	}
	amg, err := trace.AMG(trace.AMGConfig{X: 3, Y: 3, Z: 3, Cycles: 2, Levels: 3, PeakBytes: 12 * trace.KB})
	if err != nil {
		t.Fatalf("AMG: %v", err)
	}
	return map[string]*trace.Trace{"CR": cr, "FB": fb, "AMG": amg}
}

// replayCells enumerates the differential grid: machine x app x placement,
// each a full simulation under adaptive routing whose Result is digested
// whole.
func replayCells(t *testing.T) map[string]equivCell {
	t.Helper()
	apps := replayApps(t)
	cells := map[string]equivCell{}
	for _, preset := range []string{"mini", "dfplus-mini"} {
		for _, app := range []string{"CR", "FB", "AMG"} {
			for _, place := range []placement.Policy{placement.Contiguous, placement.RandomNode} {
				preset, app, place := preset, app, place
				name := fmt.Sprintf("replay/%s/%s/%s", preset, app, place)
				cells[name] = equivCell{tableKeys, func(t *testing.T) string {
					m, err := topology.Preset(preset)
					if err != nil {
						t.Fatalf("preset %s: %v", preset, err)
					}
					return policytest.SimDigest(t, core.Config{
						Topology:       m,
						Params:         network.DefaultParams(),
						Placement:      place,
						Routing:        routing.Adaptive,
						Trace:          apps[app],
						Seed:           replayEquivSeed,
						WatchdogEvents: 10_000_000_000,
					})
				}}
			}
		}
	}
	return cells
}

// TestReplayEquivalence compares every cell's digest against the committed
// pre-graph-executor snapshot.
func TestReplayEquivalence(t *testing.T) {
	checkEquiv(t, replayEquivFile, replayCells(t), "the fence-based replayer")
}
