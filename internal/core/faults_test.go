package core

import (
	"errors"
	"strings"
	"testing"

	"dragonfly/internal/faults"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// TestFaultedRunDeterministicAndAuditClean: a degraded-fabric run with the
// auditor attached completes, and the same seed reproduces it event-for-event.
func TestFaultedRunDeterministicAndAuditClean(t *testing.T) {
	tr := miniCR(t)
	run := func() *Result {
		cfg := MiniConfig(tr, Cell{placement.RandomNode, routing.Adaptive}, 7)
		cfg.Faults = &faults.Spec{GlobalFrac: 0.25, LocalFrac: 0.05, Seed: 3}
		cfg.Audit = true
		cfg.WatchdogEvents = 200_000_000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Duration != b.Duration || a.Events != b.Events ||
		a.DroppedBytes != b.DroppedBytes || a.DroppedPackets != b.DroppedPackets {
		t.Fatalf("same seed diverged on the faulted fabric: (%v,%d,%d) vs (%v,%d,%d)",
			a.Duration, a.Events, a.DroppedBytes, b.Duration, b.Events, b.DroppedBytes)
	}
	for i := range a.CommTimes {
		if a.CommTimes[i] != b.CommTimes[i] {
			t.Fatalf("rank %d comm time differs across identical faulted runs", i)
		}
	}
	if a.Audit == nil || a.Audit.Stats.Routes == 0 {
		t.Fatal("auditor was not attached to the faulted run")
	}
}

// TestEmptyFaultSpecIsByteIdentical: an empty -faults value must leave every
// result field exactly as a run without the flag — the fault machinery is
// skipped, not merely inert.
func TestEmptyFaultSpecIsByteIdentical(t *testing.T) {
	tr := miniCR(t)
	base := MiniConfig(tr, Cell{placement.RandomNode, routing.Adaptive}, 11)
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withEmpty := base
	withEmpty.Faults = &faults.Spec{}
	flagged, err := Run(withEmpty)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Duration != flagged.Duration || clean.Events != flagged.Events {
		t.Fatalf("empty fault spec changed the run: (%v,%d) vs (%v,%d)",
			clean.Duration, clean.Events, flagged.Duration, flagged.Events)
	}
	for i := range clean.CommTimes {
		if clean.CommTimes[i] != flagged.CommTimes[i] {
			t.Fatalf("rank %d comm time changed under an empty fault spec", i)
		}
	}
	if flagged.DroppedPackets != 0 || flagged.RouteErr != nil {
		t.Fatalf("empty fault spec recorded losses: %d dropped, err %v",
			flagged.DroppedPackets, flagged.RouteErr)
	}
}

// TestPartitionedFabricDegradesGracefully: isolate one group entirely while
// the app spans the machine. The run must drain — dropped traffic is
// accounted, ranks close lossily — and surface a typed route error instead
// of hanging or panicking.
func TestPartitionedFabricDegradesGracefully(t *testing.T) {
	tr := miniCR(t)
	cfg := MiniConfig(tr, Cell{placement.RandomNode, routing.Minimal}, 5)
	topo := topology.BuildMachine(cfg.Topology)
	spec := &faults.Spec{}
	for _, cn := range topo.GlobalConns() {
		if topo.GroupOfRouter(cn.A) == 0 || topo.GroupOfRouter(cn.B) == 0 {
			spec.FailLinks = append(spec.FailLinks, [2]topology.RouterID{cn.A, cn.B})
		}
	}
	cfg.Faults = spec
	cfg.Audit = true
	cfg.WatchdogEvents = 200_000_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("partitioned fabric must degrade, not fail: %v", err)
	}
	if !res.Completed {
		t.Fatal("lossy close did not terminate the replay ranks")
	}
	if res.DroppedBytes == 0 || res.DroppedPackets == 0 {
		t.Fatal("an app spanning a partition recorded no drops")
	}
	if !errors.Is(res.RouteErr, routing.ErrUnreachable) {
		t.Fatalf("RouteErr = %v, want ErrUnreachable", res.RouteErr)
	}
}

// TestFaultSpecErrorsSurface: an unresolvable spec (router ID off the
// machine) is a config error, reported before any simulation runs.
func TestFaultSpecErrorsSurface(t *testing.T) {
	tr := miniCR(t)
	cfg := MiniConfig(tr, Cell{placement.Contiguous, routing.Minimal}, 1)
	cfg.Faults = &faults.Spec{FailRouters: []topology.RouterID{10_000}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("accepted a fault spec naming a router off the machine")
	}
}

// TestWatchdogSurfacesFromRun: an absurdly small event budget turns a
// healthy run into a watchdog error carrying the network diagnostic.
func TestWatchdogSurfacesFromRun(t *testing.T) {
	tr := miniCR(t)
	cfg := MiniConfig(tr, Cell{placement.Contiguous, routing.Minimal}, 2)
	cfg.WatchdogEvents = 50
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("run with a 50-event budget did not trip the watchdog")
	}
	if !strings.Contains(err.Error(), "watchdog") || !strings.Contains(err.Error(), "messages queued") {
		t.Fatalf("watchdog error lacks the diagnostic: %v", err)
	}
}

// TestWatchdogErrorNamesHealthHistory: a stall under dynamic faults reports
// the applied fail/repair transitions in the watchdog error itself.
func TestWatchdogErrorNamesHealthHistory(t *testing.T) {
	tr := miniCR(t)
	cfg := MiniConfig(tr, Cell{placement.Contiguous, routing.Minimal}, 2)
	cfg.Faults = &faults.Spec{Events: []faults.Event{
		{At: 0, IsRouter: true, Router: 2},
		{At: 1, IsRouter: true, Router: 2, Repair: true},
	}}
	cfg.WatchdogEvents = 50
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("run with a 50-event budget did not trip the watchdog")
	}
	if !strings.Contains(err.Error(), "health transitions") ||
		!strings.Contains(err.Error(), "fail=router:2@0s") {
		t.Fatalf("watchdog error lacks the health history: %v", err)
	}
}
