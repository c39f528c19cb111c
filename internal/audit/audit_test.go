package audit_test

import (
	"strings"
	"testing"

	"dragonfly/internal/audit"
	"dragonfly/internal/core"
	"dragonfly/internal/des"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
	"dragonfly/internal/workload"
)

// miniTrace builds an application at the catalog's mini size, except that
// AMG runs two V-cycles instead of three.
func miniTrace(t *testing.T, app string) *trace.Trace {
	t.Helper()
	var (
		tr  *trace.Trace
		err error
	)
	if app == "AMG" {
		tr, err = trace.AMG(trace.AMGConfig{X: 3, Y: 3, Z: 3, Cycles: 2, Levels: 3, PeakBytes: 16 * 1024})
	} else {
		tr, _, err = trace.BuildApp(app, trace.Mini)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// The acceptance contract: every placement x routing cell of the paper's
// grid runs clean under the auditor on the reduced machine, for every
// application, and the auditor demonstrably checked something.
func TestFullGridAuditClean(t *testing.T) {
	for _, app := range []string{"CR", "FB", "AMG"} {
		tr := miniTrace(t, app)
		for _, cell := range core.AllCells() {
			cfg := core.MiniConfig(tr, cell, 1)
			cfg.Audit = true
			res, err := core.Run(cfg)
			if err != nil {
				t.Fatalf("%s under %s: %v", app, cell.Name(), err)
			}
			if !res.Completed {
				t.Fatalf("%s under %s did not complete", app, cell.Name())
			}
			if res.Audit == nil {
				t.Fatalf("%s under %s: no audit summary on an audited run", app, cell.Name())
			}
			s := res.Audit.Stats
			if s.Violations != 0 || len(res.Audit.Violations) != 0 {
				t.Fatalf("%s under %s: %d violations: %v", app, cell.Name(), s.Violations, res.Audit.Violations)
			}
			if s.Events == 0 || s.Reserves == 0 || s.Releases == 0 || s.Routes == 0 ||
				s.Messages == 0 || s.PacketsInjected == 0 || s.PacketsDelivered == 0 {
				t.Fatalf("%s under %s: auditor idle: %+v", app, cell.Name(), s)
			}
			// A drained run conserves bytes exactly: every reserve matched by
			// a release, every injected packet delivered.
			if s.PacketsInjected != s.PacketsDelivered {
				t.Fatalf("%s under %s: %d packets injected, %d delivered",
					app, cell.Name(), s.PacketsInjected, s.PacketsDelivered)
			}
		}
	}
}

// Auditing must observe without perturbing: an audited run's results are
// bit-identical to the unaudited run.
func TestAuditDoesNotPerturbResults(t *testing.T) {
	tr := miniTrace(t, "CR")
	cell := core.Cell{Placement: placement.RandomNode, Routing: routing.Adaptive}
	plain, err := core.Run(core.MiniConfig(tr, cell, 7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.MiniConfig(miniTrace(t, "CR"), cell, 7)
	cfg.Audit = true
	audited, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Duration != audited.Duration || plain.Events != audited.Events {
		t.Fatalf("audited run diverged: duration %v/%v events %d/%d",
			plain.Duration, audited.Duration, plain.Events, audited.Events)
	}
	for i := range plain.CommTimes {
		if plain.CommTimes[i] != audited.CommTimes[i] {
			t.Fatalf("rank %d comm time %v != %v", i, plain.CommTimes[i], audited.CommTimes[i])
		}
	}
}

// A deadline-bounded interference run leaves traffic in flight; the auditor
// must stay clean (skipping drain-time checks) rather than flag the bound.
func TestAuditCleanUnderBackgroundDeadline(t *testing.T) {
	tr := miniTrace(t, "CR")
	cfg := core.MiniConfig(tr, core.Cell{Placement: placement.Contiguous, Routing: routing.Adaptive}, 1)
	cfg.Audit = true
	cfg.Background = &workload.BackgroundConfig{
		Kind:     workload.UniformRandom,
		MsgBytes: 32 * 1024,
		Interval: 5 * des.Microsecond,
	}
	cfg.MaxSimTime = des.Second
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit.Stats.Violations != 0 {
		t.Fatalf("violations under background: %v", res.Audit.Violations)
	}
}

// The audited co-run path: overlapping jobs on one fabric stay clean.
func TestAuditCleanMultiJob(t *testing.T) {
	cfg := core.MultiConfig{
		Topology: topology.Mini(),
		Params:   network.DefaultParams(),
		Routing:  routing.Adaptive,
		Jobs: []core.JobSpec{
			{Name: "a", Trace: miniTrace(t, "CR"), Placement: placement.Contiguous},
			{Name: "b", Trace: miniTrace(t, "CR"), Placement: placement.RandomNode},
		},
		Seed:  3,
		Audit: true,
	}
	res, err := core.RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed() {
		t.Fatal("co-run did not complete")
	}
	if res.Audit == nil || res.Audit.Stats.Violations != 0 {
		t.Fatalf("co-run audit: %+v", res.Audit)
	}
}

// --- deliberate-violation unit tests ----------------------------------------

func newTestAuditor(t *testing.T) (*audit.Auditor, *topology.Dragonfly) {
	t.Helper()
	topo, err := topology.New(topology.Mini())
	if err != nil {
		t.Fatal(err)
	}
	return audit.New(topo), topo
}

// wantViolation asserts the auditor recorded at least one violation whose
// text contains frag.
func wantViolation(t *testing.T, a *audit.Auditor, frag string) {
	t.Helper()
	if a.Err() == nil {
		t.Fatalf("no violation recorded, want one containing %q", frag)
	}
	for _, v := range a.Summary().Violations {
		if strings.Contains(v, frag) {
			return
		}
	}
	t.Fatalf("violations %v do not mention %q", a.Summary().Violations, frag)
}

func TestDetectsCreditOverflow(t *testing.T) {
	a, _ := newTestAuditor(t)
	a.LinkAdded(0, routing.Local, 1, 4096)
	a.BufferReserve(0, 0, 4096, 4096)
	if a.Err() != nil {
		t.Fatalf("in-capacity reserve flagged: %v", a.Summary().Violations)
	}
	a.BufferReserve(0, 0, 1, 4097)
	wantViolation(t, a, "exceeds capacity")
}

func TestDetectsNegativeOccupancy(t *testing.T) {
	a, _ := newTestAuditor(t)
	a.LinkAdded(0, routing.Global, 2, 8192)
	a.BufferReserve(0, 1, 100, 100)
	a.BufferRelease(0, 1, 200, -100)
	wantViolation(t, a, "negative")
}

func TestDetectsShadowMismatch(t *testing.T) {
	a, _ := newTestAuditor(t)
	a.LinkAdded(0, routing.Terminal, 1, 8192)
	// The model claims an occupancy the history cannot produce: a
	// double-count or lost release in the flow-control code.
	a.BufferReserve(0, 0, 100, 250)
	wantViolation(t, a, "!= shadow")
}

func TestDetectsNonMonotoneTime(t *testing.T) {
	a, _ := newTestAuditor(t)
	a.EventExecuted(100)
	a.EventExecuted(99)
	wantViolation(t, a, "non-monotone")
}

func TestDetectsNegativeTime(t *testing.T) {
	a, _ := newTestAuditor(t)
	a.EventExecuted(-1)
	wantViolation(t, a, "negative event timestamp")
}

func TestDetectsVCClassDecrease(t *testing.T) {
	a, topo := newTestAuditor(t)
	// A real local link walked with a decreasing VC class: the channel
	// dependency cycle the VC scheme exists to prevent.
	r0 := topology.RouterID(0)
	var r1 topology.RouterID
	for _, n := range topo.LocalNeighbors(r0) {
		r1 = n
		break
	}
	src := topo.NodeAt(r0, 0)
	dst := topo.NodeAt(r1, 0)
	path := routing.Path{Hops: []routing.Hop{
		{From: r0, To: r1, Kind: routing.Local, VC: 2},
		{From: r1, To: r0, Kind: routing.Local, VC: 1},
		{From: r0, To: r1, Kind: routing.Local, VC: 1},
	}}
	a.RouteComputed(src, dst, path)
	wantViolation(t, a, "VC class decreased")
}

func TestDetectsPathNotReachingDestination(t *testing.T) {
	a, topo := newTestAuditor(t)
	src := topo.NodeAt(0, 0)
	dst := topo.NodeAt(topology.RouterID(topo.NumRouters()-1), 0)
	a.RouteComputed(src, dst, routing.Path{})
	wantViolation(t, a, "path ends at")
}

func TestDetectsFIFOViolation(t *testing.T) {
	a, _ := newTestAuditor(t)
	a.MessageQueued(1, 0, 5, 100)
	a.MessageQueued(2, 0, 6, 100)
	// Message 2 finishes injection before message 1: the NIC reordered its
	// send queue.
	a.PacketInjected(2, 0, 100, 100)
	wantViolation(t, a, "before earlier message")
}

func TestDetectsDeliveryBeforeInjection(t *testing.T) {
	a, _ := newTestAuditor(t)
	a.MessageQueued(1, 0, 5, 200)
	a.PacketInjected(1, 0, 100, 100)
	a.PacketDelivered(1, 5, 150, 150)
	wantViolation(t, a, "only 100 injected")
}

func TestDetectsByteOverrun(t *testing.T) {
	a, _ := newTestAuditor(t)
	a.MessageQueued(1, 0, 5, 100)
	a.PacketInjected(1, 0, 150, 150)
	wantViolation(t, a, "overrun")
}

func TestDetectsStuckTrafficAtDrain(t *testing.T) {
	a, _ := newTestAuditor(t)
	a.MessageQueued(1, 0, 5, 100)
	a.PacketInjected(1, 0, 100, 100)
	// Engine drained but the packet never arrived: a deadlock witness.
	a.Finish(true)
	wantViolation(t, a, "stuck")
}

func TestDetectsLeakedCreditsAtDrain(t *testing.T) {
	a, _ := newTestAuditor(t)
	a.LinkAdded(3, routing.Local, 4, 8192)
	a.BufferReserve(3, 2, 512, 512)
	a.Finish(true)
	wantViolation(t, a, "after drain")
}

func TestCleanRunReportsNoError(t *testing.T) {
	a, _ := newTestAuditor(t)
	a.LinkAdded(0, routing.Terminal, 1, 8192)
	a.MessageQueued(1, 0, 5, 100)
	a.EventExecuted(10)
	a.BufferReserve(0, 0, 100, 100)
	a.PacketInjected(1, 0, 100, 100)
	a.BufferRelease(0, 0, 100, 0)
	a.PacketDelivered(1, 5, 100, 100)
	a.Finish(true)
	if err := a.Err(); err != nil {
		t.Fatalf("clean sequence flagged: %v", err)
	}
	s := a.Summary()
	if s.Stats.Messages != 1 || s.Stats.PacketsDelivered != 1 {
		t.Fatalf("stats: %+v", s.Stats)
	}
}
