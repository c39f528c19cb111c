// Differential policy-equivalence suite: the healthy min and adp digests
// in testdata/equivalence.json were generated from the pre-SPI chooser
// (the hard-coded minimal/adaptive switch), the healthy qadaptive cells
// while the chooser still kept separate healthy and fault-aware builders.
// Every faulted digest was regenerated when faulted routes began keeping
// the canonical intra-group next hop wherever it survives; a chooser with
// only that change made the same bytes as the one table design it led to.
// Every refactor since must reproduce them bit for bit — routes,
// unreachability errors, RNG stream positions, link statistics, and
// simulation clocks, across healthy and faulted fabrics. Refresh (only
// when a behavior change is intended and understood) with:
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
// checked against, and the run producing the digest. A cell without
// suffixes is committed under its own name.
type equivCell struct {
	keys []string
	run  func(t *testing.T) string
}

// faultRegime is one column of the fault axis: the name it carries in the
// cell name and the spec the cell runs under (nil is the healthy fabric).
// Historic regimes are as old as the dense/compact keys; cells added since
// carry one key.
type faultRegime struct {
	name     string
	spec     *faults.Spec
	historic bool
}

// faultRegimes: healthy, 15% of the global cables down, and a mixed
// regime that also fails local links and routers, so the live walks around
// dead local links and the dead Valiant intermediates are pinned too.
var faultRegimes = []faultRegime{
	{"fault=0.00", nil, true},
	{"fault=0.15", &faults.Spec{GlobalFrac: 0.15, Seed: equivSeed + 1}, true},
	{"fault=mixed", &faults.Spec{GlobalFrac: 0.1, LocalFrac: 0.1, Routers: 2, Seed: equivSeed + 1}, false},
}

// equivMechs are the built-in policies of the grid.
var equivMechs = []routing.Mechanism{routing.Minimal, routing.Adaptive, routing.QAdaptive}

// cellKeys returns a cell's committed key suffixes: the historic pair for
// min and adp under a historic regime, none otherwise.
func cellKeys(mech routing.Mechanism, r faultRegime) []string {
	if r.historic && mech != routing.QAdaptive {
		return tableKeys
	}
	return nil
}

// routeCells enumerates the chooser-level grid: preset x mechanism x fault
// regime, plus the gateway-policy ablations the SPI also absorbed.
func routeCells() map[string]equivCell {
	cells := map[string]equivCell{}
	for _, preset := range []string{"mini", "dfplus-mini"} {
		for _, mech := range equivMechs {
			for _, r := range faultRegimes {
				preset, mech, r := preset, mech, r
				name := fmt.Sprintf("route/%s/%s/%s", preset, mech, r.name)
				cells[name] = equivCell{cellKeys(mech, r), func(t *testing.T) string {
					ic := buildPreset(t, preset)
					return policytest.RouteDigest(t, ic, policytest.RouteSpec{
						Mech:   mech,
						Seed:   equivSeed,
						Salt:   3,
						Faults: r.spec,
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
// mechanism x fault regime, each a small crystal-router replay whose
// Result (clocks, events, comm times, link stats, drops) is digested whole.
func simCells() map[string]equivCell {
	cells := map[string]equivCell{}
	for _, preset := range []string{"mini", "dfplus-mini"} {
		for _, place := range []placement.Policy{placement.Contiguous, placement.RandomNode} {
			for _, mech := range equivMechs {
				for _, r := range faultRegimes {
					preset, place, mech, r := preset, place, mech, r
					name := fmt.Sprintf("sim/%s/%s-%s/%s", preset, place, mech, r.name)
					cells[name] = equivCell{cellKeys(mech, r), func(t *testing.T) string {
						return policytest.SimDigest(t, simConfig(t, preset, place, mech, r.spec))
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

func simConfig(t *testing.T, preset string, place placement.Policy, mech routing.Mechanism, fs *faults.Spec) core.Config {
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
		Faults:         fs,
		WatchdogEvents: 10_000_000_000,
	}
	return cfg
}

// TestPolicyEquivalence compares every cell's digest against the committed
// snapshot.
func TestPolicyEquivalence(t *testing.T) {
	cells := routeCells()
	for name, c := range simCells() {
		cells[name] = c
	}
	checkEquiv(t, equivFile, cells, "the committed snapshot")
}

// keyNames returns the committed keys of the cell called name: name plus
// "/" plus each suffix, or name alone for a cell without suffixes.
func (c equivCell) keyNames(name string) []string {
	if len(c.keys) == 0 {
		return []string{name}
	}
	out := make([]string, len(c.keys))
	for i, k := range c.keys {
		out[i] = name + "/" + k
	}
	return out
}

// checkEquiv runs every cell once and compares its digest against the
// committed digest under each of its keys, one subtest per key suffix; a
// committed key without a cell, or a cell key without a committed digest,
// fails too. With UPDATE_EQUIV set it rewrites file from fresh digests
// instead.
func checkEquiv(t *testing.T, file string, cells map[string]equivCell, baseline string) {
	if os.Getenv("UPDATE_EQUIV") != "" {
		got := map[string]string{}
		for name, c := range cells {
			d := c.run(t)
			for _, k := range c.keyNames(name) {
				got[k] = d
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
		for _, key := range c.keyNames(name) {
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
	check := func(t *testing.T, key, got string) {
		w, ok := want[key]
		if !ok {
			t.Skip("no committed digest")
		}
		if got != w {
			t.Errorf("digest %s, want %s — behavior diverged from %s", got, w, baseline)
		}
	}
	for _, name := range names {
		name, c := name, cells[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := c.run(t)
			if len(c.keys) == 0 {
				check(t, name, got)
				return
			}
			for _, k := range c.keys {
				t.Run(k, func(t *testing.T) { check(t, name+"/"+k, got) })
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
