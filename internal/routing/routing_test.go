package routing

import (
	"testing"
	"testing/quick"

	"dragonfly/internal/des"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

func TestMechanismStringParse(t *testing.T) {
	for _, c := range []struct {
		m Mechanism
		s string
	}{{Minimal, "min"}, {Adaptive, "adp"}} {
		if c.m.String() != c.s {
			t.Errorf("%v.String() = %q, want %q", c.m, c.m.String(), c.s)
		}
		m, err := ParseMechanism(c.s)
		if err != nil || m != c.m {
			t.Errorf("ParseMechanism(%q) = %v, %v", c.s, m, err)
		}
	}
	if _, err := ParseMechanism("bogus"); err == nil {
		t.Error("ParseMechanism accepted garbage")
	}
	if m, err := ParseMechanism("adaptive"); err != nil || m != Adaptive {
		t.Errorf("long form: %v, %v", m, err)
	}
}

func TestMinimalPathsValidAllPairsMini(t *testing.T) {
	topo := topotest.Mini(t)
	ch := NewChooser(topo, Minimal, des.NewRNG(1, "t"), nil)
	for s := topology.NodeID(0); int(s) < topo.NumNodes(); s++ {
		for d := topology.NodeID(0); int(d) < topo.NumNodes(); d++ {
			p := ch.Route(s, d)
			rs, rd := topo.RouterOfNode(s), topo.RouterOfNode(d)
			if err := Validate(topo, rs, rd, p); err != nil {
				t.Fatalf("minimal %d->%d: %v", s, d, err)
			}
			if len(p.Hops) > 5 {
				t.Fatalf("minimal %d->%d has %d hops, want <= 5", s, d, len(p.Hops))
			}
			if g := p.GlobalHops(); (topo.GroupOfNode(s) != topo.GroupOfNode(d)) != (g == 1) {
				t.Fatalf("minimal %d->%d crosses %d global links", s, d, g)
			}
		}
	}
}

func TestMinimalIntraGroupExactLength(t *testing.T) {
	topo := topotest.Mini(t)
	ch := NewChooser(topo, Minimal, des.NewRNG(1, "t"), nil)
	for s := topology.NodeID(0); int(s) < topo.NumNodes(); s++ {
		for d := topology.NodeID(0); int(d) < topo.NumNodes(); d++ {
			if topo.GroupOfNode(s) != topo.GroupOfNode(d) {
				continue
			}
			p := ch.Route(s, d)
			want := topo.MinimalRouterHops(s, d)
			if p.RoutersTraversed() != want {
				t.Fatalf("intra-group %d->%d traverses %d routers, want %d", s, d, p.RoutersTraversed(), want)
			}
		}
	}
}

func TestMinimalPathsValidSampledTheta(t *testing.T) {
	topo := topotest.Theta(t)
	rng := des.NewRNG(2, "theta")
	ch := NewChooser(topo, Minimal, rng.Stream("route"), nil)
	for i := 0; i < 2000; i++ {
		s := topology.NodeID(rng.Intn(topo.NumNodes()))
		d := topology.NodeID(rng.Intn(topo.NumNodes()))
		p := ch.Route(s, d)
		if err := Validate(topo, topo.RouterOfNode(s), topo.RouterOfNode(d), p); err != nil {
			t.Fatalf("minimal %d->%d: %v", s, d, err)
		}
	}
}

func TestValiantPathsValid(t *testing.T) {
	topo := topotest.Mini(t)
	rng := des.NewRNG(3, "v")
	ch := NewChooser(topo, Adaptive, rng.Stream("route"), nil)
	for i := 0; i < 5000; i++ {
		s := topology.NodeID(rng.Intn(topo.NumNodes()))
		d := topology.NodeID(rng.Intn(topo.NumNodes()))
		rs, rd := topo.RouterOfNode(s), topo.RouterOfNode(d)
		if rs == rd {
			continue
		}
		p, ok := ch.ValiantPath(rs, rd)
		if !ok {
			t.Fatalf("valiant %d->%d: infeasible on a healthy fabric", s, d)
		}
		if err := Validate(topo, rs, rd, p); err != nil {
			t.Fatalf("valiant %d->%d: %v", s, d, err)
		}
		if p.GlobalHops() > 2 {
			t.Fatalf("valiant %d->%d took %d global hops", s, d, p.GlobalHops())
		}
	}
}

func TestVCClassBoundsProperty(t *testing.T) {
	topo := topotest.Mini(t)
	rng := des.NewRNG(4, "vc")
	ch := NewChooser(topo, Adaptive, rng.Stream("route"), nil)
	n := topo.NumNodes()
	f := func(x, y uint16) bool {
		s := topology.NodeID(int(x) % n)
		d := topology.NodeID(int(y) % n)
		p := ch.Route(s, d)
		for _, h := range p.Hops {
			switch h.Kind {
			case Local:
				if h.VC >= NumLocalVC {
					return false
				}
			case Global:
				if h.VC >= NumGlobalVC {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveOnIdleNetworkNeverMisroutes(t *testing.T) {
	// On an idle network the minimal-preference bias must keep adaptive
	// routing on minimal-policy paths: at most one global hop, at most
	// five hops total, and no Valiant VC-class bump.
	topo := topotest.Mini(t)
	adp := NewChooser(topo, Adaptive, des.NewRNG(5, "a"), nil)
	for i := 0; i < 500; i++ {
		rng := des.NewRNG(int64(i), "pair")
		s := topology.NodeID(rng.Intn(topo.NumNodes()))
		d := topology.NodeID(rng.Intn(topo.NumNodes()))
		pa := adp.Route(s, d)
		sameGroup := topo.GroupOfNode(s) == topo.GroupOfNode(d)
		if g := pa.GlobalHops(); (sameGroup && g != 0) || (!sameGroup && g != 1) {
			t.Fatalf("idle adaptive %d->%d took %d global hops", s, d, g)
		}
		if len(pa.Hops) > 5 {
			t.Fatalf("idle adaptive %d->%d took %d hops", s, d, len(pa.Hops))
		}
		for _, h := range pa.Hops {
			if h.Kind == Local && h.VC > 1 {
				t.Fatalf("idle adaptive %d->%d used Valiant VC class %d", s, d, h.VC)
			}
		}
	}
}

// congestedLink reports huge backlog on one directed link, zero elsewhere.
type congestedLink struct{ from, to topology.RouterID }

func (c congestedLink) OutputBacklog(from, to topology.RouterID) int64 {
	if from == c.from && to == c.to {
		return 1 << 30
	}
	return 0
}

func TestAdaptiveAvoidsCongestedFirstHop(t *testing.T) {
	topo := topotest.Mini(t)
	// Same-row pair: the minimal route's single hop is the direct link.
	rs := topo.RouterAt(0, 0, 0)
	rd := topo.RouterAt(0, 0, 3)
	s, d := topo.NodeAt(rs, 0), topo.NodeAt(rd, 0)
	cong := congestedLink{from: rs, to: rd}
	avoided := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		ch := NewChooser(topo, Adaptive, des.NewRNG(int64(i), "adp"), cong)
		p := ch.Route(s, d)
		if len(p.Hops) == 0 || p.Hops[0].To != rd {
			avoided++
		}
		if err := Validate(topo, rs, rd, p); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
	if avoided < trials*3/4 {
		t.Fatalf("adaptive avoided the congested link only %d/%d times", avoided, trials)
	}
}

func TestRouteSameRouterEmptyPath(t *testing.T) {
	topo := topotest.Mini(t)
	ch := NewChooser(topo, Adaptive, des.NewRNG(9, "s"), nil)
	p := ch.Route(topo.NodeAt(5, 0), topo.NodeAt(5, 1))
	if len(p.Hops) != 0 {
		t.Fatalf("same-router path has %d hops", len(p.Hops))
	}
	if p.RoutersTraversed() != 1 {
		t.Fatalf("RoutersTraversed = %d, want 1", p.RoutersTraversed())
	}
}

func TestValidateCatchesCorruptPaths(t *testing.T) {
	topo := topotest.Mini(t)
	ch := NewChooser(topo, Minimal, des.NewRNG(10, "c"), nil)
	s := topo.NodeAt(topo.RouterAt(0, 0, 0), 0)
	d := topo.NodeAt(topo.RouterAt(1, 1, 2), 0)
	rs, rd := topo.RouterOfNode(s), topo.RouterOfNode(d)
	good := ch.Route(s, d)
	if err := Validate(topo, rs, rd, good); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}

	// Discontinuous.
	bad := Path{Hops: append([]Hop(nil), good.Hops...)}
	bad.Hops[0].From = bad.Hops[0].From + 1
	if Validate(topo, rs, rd, bad) == nil {
		t.Error("discontinuous path accepted")
	}

	// Wrong terminus.
	if Validate(topo, rs, rs, good) == nil && len(good.Hops) > 0 {
		t.Error("path with wrong terminus accepted")
	}

	// VC out of range.
	bad2 := Path{Hops: append([]Hop(nil), good.Hops...)}
	for i := range bad2.Hops {
		if bad2.Hops[i].Kind == Local {
			bad2.Hops[i].VC = NumLocalVC
			break
		}
	}
	if Validate(topo, rs, rd, bad2) == nil {
		t.Error("out-of-range local VC accepted")
	}
}

func TestGatewayNearestPolicy(t *testing.T) {
	topo := topotest.Theta(t)
	ch := NewChooserOpts(topo, Minimal, des.NewRNG(12, "gw"), nil, Options{Gateway: GatewayNearest})
	rs := topo.RouterAt(0, 2, 3)
	gw, _ := ch.gateway(rs, 0, 5, topo.RouterAt(5, 0, 0))
	got := topo.LocalDistance(rs, gw.Router)
	// With 120 gateways per pair spread over 96 routers, some gateway is
	// within one local hop of (often colocated with) any router.
	if got > 1 {
		t.Fatalf("picked gateway %d local hops away, want <= 1", got)
	}
	for _, alt := range topo.Gateways(0, 5) {
		if topo.LocalDistance(rs, alt.Router) < got {
			t.Fatalf("nearer gateway %v existed (d=%d) than picked (d=%d)",
				alt, topo.LocalDistance(rs, alt.Router), got)
		}
	}
}

func TestGatewaySpreadPolicyDefault(t *testing.T) {
	topo := topotest.Theta(t)
	ch := NewChooser(topo, Minimal, des.NewRNG(13, "gw"), nil)
	rs := topo.RouterAt(0, 2, 3)
	// Every candidate is within one local hop, and the candidate set is
	// far larger than the strictly-nearest set (load spreading).
	seen := map[topology.RouterID]bool{}
	for i := 0; i < 500; i++ {
		gw, _ := ch.gateway(rs, 0, 5, topo.RouterAt(5, 0, 0))
		if d := topo.LocalDistance(rs, gw.Router); d > 1 {
			t.Fatalf("spread policy picked gateway %d hops away", d)
		}
		seen[gw.Router] = true
	}
	if len(seen) < 5 {
		t.Fatalf("spread policy used only %d gateway routers over 500 picks", len(seen))
	}
}

func TestRandomGatewayOptionSpreadsChoice(t *testing.T) {
	topo := topotest.Theta(t)
	rng := des.NewRNG(1, "gw")
	nearest := NewChooserOpts(topo, Minimal, rng.Stream("a"), nil, Options{Gateway: GatewayNearest})
	random := NewChooserOpts(topo, Minimal, rng.Stream("b"), nil, Options{Gateway: GatewayRandom})
	rs := topo.RouterAt(0, 2, 3)
	src := topo.NodeAt(rs, 0)
	dst := topo.NodeAt(topo.RouterAt(5, 0, 0), 0)
	// Nearest-gateway routes never take a longer first segment than needed;
	// random-gateway routes frequently do.
	longer := 0
	for i := 0; i < 200; i++ {
		pn := nearest.Route(src, dst)
		pr := random.Route(src, dst)
		if err := Validate(topo, rs, topo.RouterOfNode(dst), pr); err != nil {
			t.Fatal(err)
		}
		if len(pr.Hops) > len(pn.Hops) {
			longer++
		}
	}
	if longer < 20 {
		t.Fatalf("random gateway produced longer paths only %d/200 times", longer)
	}
}

func TestValiantCandidatesOption(t *testing.T) {
	topo := topotest.Mini(t)
	rs := topo.RouterAt(0, 0, 0)
	rd := topo.RouterAt(0, 0, 3)
	s, d := topo.NodeAt(rs, 0), topo.NodeAt(rd, 0)
	cong := congestedLink{from: rs, to: rd}
	// With more Valiant candidates the adaptive policy escapes a congested
	// minimal first hop at least as often.
	avoid := func(n int) int {
		avoided := 0
		for i := 0; i < 200; i++ {
			ch := NewChooserOpts(topo, Adaptive, des.NewRNG(int64(i), "vc"), cong, Options{ValiantCandidates: n})
			p := ch.Route(s, d)
			if len(p.Hops) == 0 || p.Hops[0].To != rd {
				avoided++
			}
		}
		return avoided
	}
	two, eight := avoid(2), avoid(8)
	if eight < two {
		t.Fatalf("8 candidates avoided congestion %d times < 2 candidates' %d", eight, two)
	}
	if eight < 150 {
		t.Fatalf("8 candidates avoided only %d/200", eight)
	}
}
