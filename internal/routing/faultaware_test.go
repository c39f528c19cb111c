package routing_test

import (
	"errors"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

// liveGlobalHop reports whether at least one live global cable joins the
// routers of a global hop — the fabric's pickLink only needs one.
func liveGlobalHop(ic topology.Interconnect, h topology.Health, from, to topology.RouterID) bool {
	for _, cn := range ic.GlobalConns() {
		if cn.A == from && cn.B == to && h.GlobalLinkUp(cn.A, cn.APort) {
			return true
		}
		if cn.B == from && cn.A == to && h.GlobalLinkUp(cn.B, cn.BPort) {
			return true
		}
	}
	return false
}

// assertLivePath fails the test when a route touches dead equipment.
func assertLivePath(t *testing.T, ic topology.Interconnect, set *faults.Set, p routing.Path) {
	t.Helper()
	for i, h := range p.Hops {
		if !set.RouterUp(h.From) || !set.RouterUp(h.To) {
			t.Fatalf("hop %d %d->%d traverses a dead router: %+v", i, h.From, h.To, p.Hops)
		}
		switch h.Kind {
		case routing.Local:
			if !set.LocalLinkUp(h.From, h.To) {
				t.Fatalf("hop %d traverses dead local link %d-%d: %+v", i, h.From, h.To, p.Hops)
			}
		case routing.Global:
			if !liveGlobalHop(ic, set, h.From, h.To) {
				t.Fatalf("hop %d has no live global cable %d->%d: %+v", i, h.From, h.To, p.Hops)
			}
		}
	}
}

// TestFaultRoutesAvoidDeadEquipment: under a moderate random fault load,
// every successfully routed pair yields a validated, VC-monotone path that
// touches only live equipment, for both mechanisms.
func TestFaultRoutesAvoidDeadEquipment(t *testing.T) {
	ic := topotest.Mini(t)
	for _, seed := range []int64{1, 2, 3} {
		set, err := faults.Resolve(&faults.Spec{GlobalFrac: 0.25, LocalFrac: 0.1, Routers: 2, Seed: seed}, ic)
		if err != nil {
			t.Fatal(err)
		}
		for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
			rng := des.NewRNG(seed, "faulttest")
			ch := routing.NewChooserOpts(ic, mech, rng.Stream("route"), nil, routing.Options{Health: set})
			pick := rng.Stream("pairs")
			routed, unreachable := 0, 0
			for i := 0; i < 300; i++ {
				src := topology.NodeID(pick.Intn(ic.NumNodes()))
				dst := topology.NodeID(pick.Intn(ic.NumNodes()))
				if src == dst {
					continue
				}
				p, err := ch.TryRoute(src, dst)
				if err != nil {
					if !errors.Is(err, routing.ErrUnreachable) {
						t.Fatalf("seed %d %v %d->%d: non-typed failure: %v", seed, mech, src, dst, err)
					}
					unreachable++
					continue
				}
				routed++
				rs, rd := ic.RouterOfNode(src), ic.RouterOfNode(dst)
				if err := routing.Validate(ic, rs, rd, p); err != nil {
					t.Fatalf("seed %d %v %d->%d: invalid route: %v\npath: %+v", seed, mech, src, dst, err, p.Hops)
				}
				assertLivePath(t, ic, set, p)
				ch.Release(p)
			}
			if routed == 0 {
				t.Fatalf("seed %d %v: every pair unreachable under a moderate fault load", seed, mech)
			}
		}
	}
}

// TestFaultTransitFallback: with every direct gateway between two groups
// dead, minimal routing detours through a transit group — two global hops,
// still valid and live.
func TestFaultTransitFallback(t *testing.T) {
	ic := topotest.Mini(t)
	set, err := faults.Resolve(&faults.Spec{}, ic)
	if err != nil {
		t.Fatal(err)
	}
	for _, cn := range ic.GlobalConns() {
		ga, gb := ic.GroupOfRouter(cn.A), ic.GroupOfRouter(cn.B)
		if (ga == 0 && gb == 1) || (ga == 1 && gb == 0) {
			set.Apply(faults.Event{Target: faults.Target{Kind: faults.Link, A: int(cn.A), B: int(cn.B)}})
		}
	}
	ch := routing.NewChooserOpts(ic, routing.Minimal, des.NewRNG(1, "t").Stream("route"), nil,
		routing.Options{Health: set})
	var src, dst topology.NodeID = -1, -1
	for n := 0; n < ic.NumNodes(); n++ {
		switch ic.GroupOfNode(topology.NodeID(n)) {
		case 0:
			if src < 0 {
				src = topology.NodeID(n)
			}
		case 1:
			if dst < 0 {
				dst = topology.NodeID(n)
			}
		}
	}
	p, err := ch.TryRoute(src, dst)
	if err != nil {
		t.Fatalf("no route with direct gateways dead (transit fallback broken): %v", err)
	}
	if g := p.GlobalHops(); g != 2 {
		t.Fatalf("detour has %d global hops, want 2: %+v", g, p.Hops)
	}
	rs, rd := ic.RouterOfNode(src), ic.RouterOfNode(dst)
	if err := routing.Validate(ic, rs, rd, p); err != nil {
		t.Fatalf("detour invalid: %v\npath: %+v", err, p.Hops)
	}
	assertLivePath(t, ic, set, p)
}

// TestFaultUnreachableTyped: isolating a group entirely (all its global
// cables dead) makes cross-group routes fail with ErrUnreachable — and a
// dead endpoint router fails the same way, even same-router pairs.
func TestFaultUnreachableTyped(t *testing.T) {
	ic := topotest.Mini(t)
	set, err := faults.Resolve(&faults.Spec{}, ic)
	if err != nil {
		t.Fatal(err)
	}
	for _, cn := range ic.GlobalConns() {
		if ic.GroupOfRouter(cn.A) == 0 || ic.GroupOfRouter(cn.B) == 0 {
			set.Apply(faults.Event{Target: faults.Target{Kind: faults.Link, A: int(cn.A), B: int(cn.B)}})
		}
	}
	for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
		ch := routing.NewChooserOpts(ic, mech, des.NewRNG(1, "t").Stream("route"), nil,
			routing.Options{Health: set})
		var inG0, outG0 topology.NodeID = -1, -1
		for n := 0; n < ic.NumNodes(); n++ {
			if ic.GroupOfNode(topology.NodeID(n)) == 0 {
				if inG0 < 0 {
					inG0 = topology.NodeID(n)
				}
			} else if outG0 < 0 {
				outG0 = topology.NodeID(n)
			}
		}
		_, err := ch.TryRoute(inG0, outG0)
		if !errors.Is(err, routing.ErrUnreachable) {
			t.Fatalf("%v: isolated group route err = %v, want ErrUnreachable", mech, err)
		}
		var ue *routing.UnreachableError
		if !errors.As(err, &ue) {
			t.Fatalf("%v: error %v does not carry the router pair", mech, err)
		}
		// Intra-group routes inside the isolated group still work.
		var second topology.NodeID = -1
		for n := int(inG0) + 1; n < ic.NumNodes(); n++ {
			if ic.GroupOfNode(topology.NodeID(n)) == 0 &&
				ic.RouterOfNode(topology.NodeID(n)) != ic.RouterOfNode(inG0) {
				second = topology.NodeID(n)
				break
			}
		}
		if p, err := ch.TryRoute(inG0, second); err != nil {
			t.Fatalf("%v: intra-group route inside isolated group failed: %v", mech, err)
		} else {
			ch.Release(p)
		}
		// A dead endpoint router is unreachable regardless of topology.
		dead := faults.Target{Kind: faults.Router, A: int(ic.RouterOfNode(second))}
		set.Apply(faults.Event{Target: dead})
		ch.RebuildHealth()
		if _, err := ch.TryRoute(inG0, second); !errors.Is(err, routing.ErrUnreachable) {
			t.Fatalf("%v: dead endpoint router err = %v, want ErrUnreachable", mech, err)
		}
		set.Apply(faults.Event{Target: dead, Repair: true})
	}
}

// TestFaultRouteDeterministic: same machine, fault spec, and seed produce
// identical routes call-for-call; the determinism contract faulted golden
// runs depend on.
func TestFaultRouteDeterministic(t *testing.T) {
	ic := topotest.Mini(t)
	build := func() *routing.Chooser {
		set, err := faults.Resolve(&faults.Spec{GlobalFrac: 0.25, Seed: 7}, ic)
		if err != nil {
			t.Fatal(err)
		}
		return routing.NewChooserOpts(ic, routing.Adaptive, des.NewRNG(9, "t").Stream("route"),
			nil, routing.Options{Health: set})
	}
	a, b := build(), build()
	pick := des.NewRNG(4, "pairs")
	for i := 0; i < 200; i++ {
		src := topology.NodeID(pick.Intn(ic.NumNodes()))
		dst := topology.NodeID(pick.Intn(ic.NumNodes()))
		pa, ea := a.TryRoute(src, dst)
		pb, eb := b.TryRoute(src, dst)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("pair %d->%d: reachability differs: %v vs %v", src, dst, ea, eb)
		}
		if len(pa.Hops) != len(pb.Hops) {
			t.Fatalf("pair %d->%d: hop counts differ: %d vs %d", src, dst, len(pa.Hops), len(pb.Hops))
		}
		for j := range pa.Hops {
			if pa.Hops[j] != pb.Hops[j] {
				t.Fatalf("pair %d->%d hop %d differs: %+v vs %+v", src, dst, j, pa.Hops[j], pb.Hops[j])
			}
		}
	}
}

// TestRebuildHealthAllocatesNothing: a health rebuild reads a router's
// local neighbor list on every BFS pop, tens of thousands of pops on
// Theta. The lists are the machine's shared slices and the rebuild runs
// on the calling goroutine, so a faulted Theta rebuild allocates nothing.
func TestRebuildHealthAllocatesNothing(t *testing.T) {
	ic := topotest.Theta(t)
	set, err := faults.Resolve(&faults.Spec{GlobalFrac: 0.1, LocalFrac: 0.05, Routers: 2, Seed: 1}, ic)
	if err != nil {
		t.Fatal(err)
	}
	ch := routing.NewChooserOpts(ic, routing.Adaptive, des.NewRNG(1, "rebuild").Stream("route"), nil, routing.Options{Health: set})
	if n := testing.AllocsPerRun(2, ch.RebuildHealth); n != 0 {
		t.Fatalf("a faulted Theta RebuildHealth made %v allocations, want 0", n)
	}
	ch.Close()
}
