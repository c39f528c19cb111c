package core

import (
	"errors"
	"fmt"
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

// TestEmptyFaultSpecIsByteIdentical: a fault spec that fails nothing must
// leave a run exactly as a run without one. An empty spec skips the fault
// machinery; a static spec whose draw fails nothing installs the health
// view, and so does a repair of a live local link, which also rebuilds the
// routing tables mid-run. Both must route as the healthy fabric does, so the
// result digests match and the repair adds its own event and nothing else.
// Every built-in policy runs on both mini machines under each gateway
// policy.
func TestEmptyFaultSpecIsByteIdentical(t *testing.T) {
	tr := miniCR(t)
	for _, machine := range []topology.Machine{topology.Mini(), topology.PlusMini()} {
		ic := topology.BuildMachine(machine)
		a := topology.RouterID(0)
		b := ic.LocalNeighbors(a)[0]
		for _, tc := range []struct {
			name  string
			spec  string
			extra uint64 // events the spec adds to the run
		}{
			{"empty", "", 0},
			{"draw fails nothing", "global=0.0001,local=0.0001,seed=5", 0},
			{"repair of a live link", fmt.Sprintf("repair=link:%d-%d@5us", a, b), 1},
		} {
			spec, err := faults.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			set, err := faults.Resolve(spec, ic)
			if err != nil {
				t.Fatal(err)
			}
			if n := set.DownGlobalConns() + set.DownLocalLinks() + len(set.DownRouters()); n != 0 {
				t.Fatalf("%s: spec %q fails %d elements at start, want none", machine.Label(), tc.spec, n)
			}
			for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive, routing.QAdaptive} {
				for _, gw := range []routing.GatewayPolicy{routing.GatewaySpread, routing.GatewayNearest, routing.GatewayRandom} {
					name := fmt.Sprintf("%s/%s/%v/gateway=%d", machine.Label(), tc.name, mech, gw)
					base := MiniConfig(tr, Cell{placement.RandomNode, mech}, 11)
					base.Topology = machine
					base.Params.Route.Gateway = gw
					clean, err := Run(base)
					if err != nil {
						t.Fatal(err)
					}
					withSpec := base
					withSpec.Faults = spec
					flagged, err := Run(withSpec)
					if err != nil {
						t.Fatal(err)
					}
					if flagged.Events != clean.Events+tc.extra {
						t.Fatalf("%s: %d events, want the healthy run's %d + %d", name, flagged.Events, clean.Events, tc.extra)
					}
					flagged.Events -= tc.extra
					if got, want := resultDigest(flagged), resultDigest(clean); got != want {
						t.Fatalf("%s: result digest %s, healthy run %s (%v vs %v)", name, got, want, flagged.Duration, clean.Duration)
					}
					if flagged.DroppedPackets != 0 || flagged.RouteErr != nil {
						t.Fatalf("%s: recorded losses: %d dropped, err %v", name, flagged.DroppedPackets, flagged.RouteErr)
					}
				}
			}
		}
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
			spec.Fail = append(spec.Fail, faults.Target{Kind: faults.Link, A: int(cn.A), B: int(cn.B)})
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
	cfg.Faults = &faults.Spec{Fail: []faults.Target{{Kind: faults.Router, A: 10_000}}}
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
		{At: 0, Target: faults.Target{Kind: faults.Router, A: 2}},
		{At: 1, Target: faults.Target{Kind: faults.Router, A: 2}, Repair: true},
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

// TestZeroTerminalLatencyDynamicDrop: with TerminalLatency 0 a packet's
// injection-complete event and its arrival at the first router fall at the
// same instant. A group outage that drops the packet on arrival recycles
// it, so the injection event must run first; a run that used to read the
// recycled packet's message panicked.
func TestZeroTerminalLatencyDynamicDrop(t *testing.T) {
	cfg := MiniConfig(miniCR(t), Cell{placement.RandomNode, routing.Adaptive}, 11)
	cfg.Params.TerminalLatency = 0
	spec, err := faults.ParseSpec("fail=group:1@2us,repair=group:1@20us")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = spec
	cfg.Audit = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.DroppedPackets == 0 {
		t.Fatal("the outage dropped no packet, so the drop path went untested")
	}
}
