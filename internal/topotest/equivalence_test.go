// Differential policy-equivalence suite: the digests in
// testdata/equivalence.json were generated from the pre-SPI chooser (the
// hard-coded minimal/adaptive switch), and every refactor since must
// reproduce them bit for bit — routes, unreachability errors, RNG stream
// positions, link statistics, and simulation clocks, across healthy and
// faulted fabrics. Refresh (only when a behavior change is intended and
// understood) with:
//
//	UPDATE_EQUIV=1 go test ./internal/topotest -run TestPolicyEquivalence
//
// This file is an external test package on purpose: package topotest must
// keep importing only topology (routing's internal tests import it), so
// the harness — which needs routing, core, and faults — lives out here and
// in internal/topotest/policytest.
package topotest_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/faults"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest/policytest"
	"dragonfly/internal/trace"
)

const equivFile = "testdata/equivalence.json"

// equivSeed fixes every stream in the suite; changing it invalidates the
// committed digests.
const equivSeed = 11

// tableKeys are the committed key suffixes of a cell. The digest files
// were generated while the simulator kept two route/link table layouts
// (dense and compact), most cells running once under each; the layouts
// always produced identical digests. One layout remains, so every cell
// now runs once and must match the digest under each of its keys — the
// files stay byte-identical and every committed key is still checked.
var tableKeys = []string{"dense", "compact"}

// equivCell is one grid cell: the committed key suffixes its digest is
// checked against, and the run producing the digest.
type equivCell struct {
	keys []string
	run  func(t *testing.T) string
}

// routeCells enumerates the chooser-level grid: preset x mechanism x
// healthy/faulted, plus the gateway-policy ablations the SPI also absorbed.
func routeCells() map[string]equivCell {
	cells := map[string]equivCell{}
	for _, preset := range []string{"mini", "dfplus-mini"} {
		for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
			for _, frac := range []float64{0, 0.15} {
				preset, mech, frac := preset, mech, frac
				name := fmt.Sprintf("route/%s/%s/fault=%.2f", preset, mech, frac)
				cells[name] = equivCell{tableKeys, func(t *testing.T) string {
					ic := buildPreset(t, preset)
					return policytest.RouteDigest(t, ic, policytest.RouteSpec{
						Mech:   mech,
						Seed:   equivSeed,
						Salt:   3,
						Faults: frac,
					})
				}}
			}
		}
	}
	for _, gw := range []routing.GatewayPolicy{routing.GatewayNearest, routing.GatewayRandom} {
		gw := gw
		name := fmt.Sprintf("route/mini/min/gateway=%d", gw)
		cells[name] = equivCell{[]string{"dense"}, func(t *testing.T) string {
			ic := buildPreset(t, "mini")
			return policytest.RouteDigest(t, ic, policytest.RouteSpec{
				Mech: routing.Minimal,
				Opts: routing.Options{Gateway: gw},
				Seed: equivSeed,
				Salt: 3,
			})
		}}
	}
	return cells
}

// simCells enumerates full-simulation cells: preset x placement x
// mechanism x healthy/faulted, each a small crystal-router replay whose
// Result (clocks, events, comm times, link stats, drops) is digested whole.
func simCells() map[string]equivCell {
	cells := map[string]equivCell{}
	for _, preset := range []string{"mini", "dfplus-mini"} {
		for _, place := range []placement.Policy{placement.Contiguous, placement.RandomNode} {
			for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
				for _, frac := range []float64{0, 0.15} {
					preset, place, mech, frac := preset, place, mech, frac
					name := fmt.Sprintf("sim/%s/%s-%s/fault=%.2f", preset, place, mech, frac)
					cells[name] = equivCell{tableKeys, func(t *testing.T) string {
						return policytest.SimDigest(t, simConfig(t, preset, place, mech, frac))
					}}
				}
			}
		}
	}
	return cells
}

func buildPreset(t *testing.T, preset string) topology.Interconnect {
	t.Helper()
	m, err := topology.Preset(preset)
	if err != nil {
		t.Fatalf("preset %s: %v", preset, err)
	}
	ic, err := m.Build()
	if err != nil {
		t.Fatalf("build %s: %v", preset, err)
	}
	return ic
}

func simConfig(t *testing.T, preset string, place placement.Policy, mech routing.Mechanism, frac float64) core.Config {
	t.Helper()
	m, err := topology.Preset(preset)
	if err != nil {
		t.Fatalf("preset %s: %v", preset, err)
	}
	tr, err := trace.CR(trace.CRConfig{Ranks: 16, MessageBytes: 8 * trace.KB})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	cfg := core.Config{
		Topology:       m,
		Params:         network.DefaultParams(),
		Placement:      place,
		Routing:        mech,
		Trace:          tr,
		Seed:           equivSeed,
		WatchdogEvents: 10_000_000_000,
	}
	if frac > 0 {
		cfg.Faults = &faults.Spec{GlobalFrac: frac, Seed: equivSeed + 1}
	}
	return cfg
}

// TestPolicyEquivalence compares every cell's digest against the committed
// pre-SPI snapshot.
func TestPolicyEquivalence(t *testing.T) {
	cells := routeCells()
	for name, c := range simCells() {
		cells[name] = c
	}
	checkEquiv(t, equivFile, cells, "the pre-SPI chooser")
}

// checkEquiv runs every cell once and compares its digest against the
// committed digest under each of its keys (cell name + "/" + suffix), one
// subtest per key; a committed key without a cell, or a cell key without a
// committed digest, fails too. With UPDATE_EQUIV set it rewrites file from
// fresh digests instead.
func checkEquiv(t *testing.T, file string, cells map[string]equivCell, baseline string) {
	if os.Getenv("UPDATE_EQUIV") != "" {
		got := map[string]string{}
		for name, c := range cells {
			d := c.run(t)
			for _, k := range c.keys {
				got[name+"/"+k] = d
			}
		}
		writeEquiv(t, file, got)
		t.Logf("equivalence: wrote %d cell digests to %s", len(got), file)
		return
	}

	want := readEquiv(t, file)
	names := make([]string, 0, len(cells))
	keyed := map[string]bool{}
	for name, c := range cells {
		names = append(names, name)
		for _, k := range c.keys {
			key := name + "/" + k
			keyed[key] = true
			if _, ok := want[key]; !ok {
				t.Errorf("%s: no committed digest (run UPDATE_EQUIV=1 and review the diff)", key)
			}
		}
	}
	sort.Strings(names)
	for key := range want {
		if !keyed[key] {
			t.Errorf("%s: committed digest has no matching cell (stale %s?)", key, file)
		}
	}
	for _, name := range names {
		name, c := name, cells[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := c.run(t)
			for _, k := range c.keys {
				w, ok := want[name+"/"+k]
				t.Run(k, func(t *testing.T) {
					if !ok {
						t.Skip("no committed digest")
					}
					if got != w {
						t.Errorf("digest %s, want %s — behavior diverged from %s", got, w, baseline)
					}
				})
			}
		})
	}
}

func readEquiv(t *testing.T, file string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read %s (generate with UPDATE_EQUIV=1): %v", file, err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", file, err)
	}
	return want
}

func writeEquiv(t *testing.T, file string, digests map[string]string) {
	t.Helper()
	data, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", file, err)
	}
}
