package core_test

// The executor contract every sweep rests on: a batch of configs through
// farm.Farm — the simulator's one cell executor — returns, at every worker
// count, exactly what sequential core.Run calls produce, in config order,
// with failures and panics confined to their own cells. The tests live in
// an external package because farm imports core.

import (
	"reflect"
	"strings"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/farm"
	"dragonfly/internal/faults"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
)

// runBatch executes cfgs on a fresh store-less Farm, as dragonfly.RunBatch
// does.
func runBatch(cfgs []core.Config, workers int) ([]*core.Result, error) {
	results, _, err := farm.New(nil, farm.Options{Parallel: workers}).Run(cfgs)
	return results, err
}

func miniCR(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.CR(trace.CRConfig{Ranks: 32, MessageBytes: 16 * trace.KB})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func miniCellConfigs(t *testing.T) []core.Config {
	t.Helper()
	tr, err := trace.CR(trace.CRConfig{Ranks: 16, MessageBytes: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []core.Config
	for _, cell := range core.AllCells() {
		cfgs = append(cfgs, core.MiniConfig(tr, cell, 1))
	}
	return cfgs
}

// The executor must return, for every worker count, exactly the results
// that sequential Run calls produce — the determinism contract the parallel
// sweeps rest on.
func TestRunBatchMatchesSequential(t *testing.T) {
	cfgs := miniCellConfigs(t)
	want := make([]*core.Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 2, 4, 0} {
		got, err := runBatch(cfgs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Duration != want[i].Duration || got[i].Events != want[i].Events {
				t.Fatalf("workers=%d cfg %s: duration/events (%v, %d) != sequential (%v, %d)",
					workers, cfgs[i].Name(), got[i].Duration, got[i].Events, want[i].Duration, want[i].Events)
			}
			if !reflect.DeepEqual(got[i].CommTimes, want[i].CommTimes) {
				t.Fatalf("workers=%d cfg %s: comm times diverge from sequential run", workers, cfgs[i].Name())
			}
			if !reflect.DeepEqual(got[i].AvgHops, want[i].AvgHops) {
				t.Fatalf("workers=%d cfg %s: hops diverge from sequential run", workers, cfgs[i].Name())
			}
			if !reflect.DeepEqual(got[i].Links, want[i].Links) {
				t.Fatalf("workers=%d cfg %s: link stats diverge from sequential run", workers, cfgs[i].Name())
			}
		}
	}
}

// A config error must surface as the first failure in config order, with the
// healthy configs still attempted.
func TestRunBatchErrorOrder(t *testing.T) {
	cfgs := miniCellConfigs(t)[:4]
	cfgs[1].Trace = nil // fails fast in Run
	cfgs[3].Trace = nil
	results, err := runBatch(cfgs, 4)
	if err == nil {
		t.Fatal("batch with broken config reported no error")
	}
	if results[0] == nil || results[2] == nil {
		t.Fatal("healthy configs were not run")
	}
	if results[1] != nil || results[3] != nil {
		t.Fatal("broken configs produced results")
	}
}

// panicMachine trips a deliberate panic inside Run, for the executor's
// panic firewall.
type panicMachine struct{}

func (panicMachine) Build() (topology.Interconnect, error) { panic("synthetic machine failure") }
func (panicMachine) Label() string                         { return "panic" }
func (panicMachine) CanonicalSpec() string                 { return "panic" }

// TestRunBatchRecoversPanics: one panicking config must not take down the
// batch — siblings complete, the panic becomes that config's error, and the
// merge stays in config order.
func TestRunBatchRecoversPanics(t *testing.T) {
	tr := miniCR(t)
	good := core.MiniConfig(tr, core.Cell{Placement: placement.Contiguous, Routing: routing.Minimal}, 3)
	bad := good
	bad.Topology = panicMachine{}
	for _, parallel := range []int{1, 4} {
		results, err := runBatch([]core.Config{good, bad, good}, parallel)
		if err == nil {
			t.Fatalf("parallel=%d: panic did not surface as an error", parallel)
		}
		if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "synthetic machine failure") {
			t.Fatalf("parallel=%d: error does not describe the panic: %v", parallel, err)
		}
		if results[0] == nil || results[2] == nil {
			t.Fatalf("parallel=%d: sibling configs did not complete", parallel)
		}
		if results[1] != nil {
			t.Fatalf("parallel=%d: panicked config produced a result", parallel)
		}
		if results[0].Duration != results[2].Duration {
			t.Fatalf("parallel=%d: identical sibling configs diverged", parallel)
		}
	}
}

// TestDynamicFaultRunsDeterministic: the new fault dynamics — a flapping
// link, a correlated group outage, a bundle outage, all failed and repaired
// mid-run — produce audit-clean runs that are bit-identical on rerun and at
// every executor worker count.
func TestDynamicFaultRunsDeterministic(t *testing.T) {
	tr := miniCR(t)
	specs := []*faults.Spec{
		{Flaps: []faults.Flap{{A: 0, B: 1, MTBF: 50_000, MTTR: 20_000}}, FlapUntil: 500_000, Seed: 3},
		{Events: []faults.Event{
			{At: 10_000, IsGroup: true, Group: 1},
			{At: 60_000, IsGroup: true, Group: 1, Repair: true},
		}},
		{Events: []faults.Event{
			{At: 10_000, IsBundle: true, G1: 0, G2: 1},
			{At: 60_000, IsBundle: true, G1: 0, G2: 1, Repair: true},
		}},
	}
	var cfgs []core.Config
	for _, spec := range specs {
		cfg := core.MiniConfig(tr, core.Cell{Placement: placement.RandomNode, Routing: routing.Adaptive}, 7)
		cfg.Faults = spec
		cfg.Audit = true
		cfg.WatchdogEvents = 200_000_000
		cfgs = append(cfgs, cfg)
	}
	base, err := runBatch(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range base {
		if !res.Completed {
			t.Fatalf("spec %d: run did not complete", i)
		}
		if res.Audit == nil || res.Audit.Stats.Routes == 0 {
			t.Fatalf("spec %d: auditor was not attached", i)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		again, err := runBatch(cfgs, workers)
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		for i := range base {
			a, b := base[i], again[i]
			if a.Duration != b.Duration || a.Events != b.Events ||
				a.DroppedPackets != b.DroppedPackets || a.DroppedBytes != b.DroppedBytes {
				t.Fatalf("parallel=%d spec %d: diverged: (%v,%d,%d) vs (%v,%d,%d)",
					workers, i, a.Duration, a.Events, a.DroppedPackets, b.Duration, b.Events, b.DroppedPackets)
			}
			for r := range a.CommTimes {
				if a.CommTimes[r] != b.CommTimes[r] {
					t.Fatalf("parallel=%d spec %d: rank %d comm time diverged", workers, i, r)
				}
			}
		}
	}
}

// policyCells are the determinism suite's routing-policy grid: both
// built-ins plus the stateful learning policy, each under a localizing and
// a balancing placement. qadaptive is the interesting case — its Q-table
// trajectory depends on the exact arrival order of saturation feedback, so
// any nondeterminism in event ordering or worker scheduling shows up here
// first.
func policyCells() []core.Cell {
	return []core.Cell{
		{Placement: placement.Contiguous, Routing: routing.Minimal},
		{Placement: placement.RandomNode, Routing: routing.Adaptive},
		{Placement: placement.Contiguous, Routing: routing.QAdaptive},
		{Placement: placement.RandomNode, Routing: routing.QAdaptive},
	}
}

// requireSameResult compares every Result field a routing policy can
// perturb; the audit report is excluded because only some runs request it.
func requireSameResult(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if got.Duration != want.Duration || got.Events != want.Events || got.Completed != want.Completed {
		t.Fatalf("%s: clock/events (%v, %d, %v) != baseline (%v, %d, %v)",
			label, got.Duration, got.Events, got.Completed, want.Duration, want.Events, want.Completed)
	}
	if !reflect.DeepEqual(got.CommTimes, want.CommTimes) {
		t.Fatalf("%s: per-rank comm times diverge", label)
	}
	if !reflect.DeepEqual(got.AvgHops, want.AvgHops) {
		t.Fatalf("%s: per-rank hop averages diverge", label)
	}
	if !reflect.DeepEqual(got.Links, want.Links) {
		t.Fatalf("%s: link statistics diverge", label)
	}
	if got.DroppedPackets != want.DroppedPackets || got.DroppedBytes != want.DroppedBytes {
		t.Fatalf("%s: drop accounting diverges", label)
	}
}

// TestPolicyDeterminism is the policy-parameterized bit-identity suite: for
// every routing policy, one seed must produce identical results on repeated
// sequential runs, across every executor worker count, and under the
// invariant auditor (whose instrumentation must observe, never perturb).
func TestPolicyDeterminism(t *testing.T) {
	tr := miniCR(t)
	cells := policyCells()
	cfgs := make([]core.Config, len(cells))
	want := make([]*core.Result, len(cells))
	for i, cell := range cells {
		cfgs[i] = core.MiniConfig(tr, cell, 11)
		res, err := core.Run(cfgs[i])
		if err != nil {
			t.Fatalf("%s: %v", cell.Name(), err)
		}
		want[i] = res
	}

	// Repeated sequential run: a policy keeping hidden state across Run
	// calls (anything not reconstructed from the seed) breaks here.
	for i, cfg := range cfgs {
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s rerun: %v", cells[i].Name(), err)
		}
		requireSameResult(t, cells[i].Name()+"/rerun", res, want[i])
	}

	// Every worker count must reproduce the sequential results exactly.
	for _, workers := range []int{1, 2, 4} {
		results, err := runBatch(cfgs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			requireSameResult(t, cells[i].Name()+"/parallel", results[i], want[i])
		}
	}

	// The auditor must be a pure observer for every policy.
	for i, cfg := range cfgs {
		cfg.Audit = true
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s audited: %v", cells[i].Name(), err)
		}
		requireSameResult(t, cells[i].Name()+"/audit", res, want[i])
		if res.Audit == nil || len(res.Audit.Violations) != 0 {
			t.Fatalf("%s: auditor flagged the run: %v", cells[i].Name(), res.Audit)
		}
	}
}
