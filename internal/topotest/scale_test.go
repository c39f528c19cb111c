package topotest_test

// Property tests on synthesized >=5k-router machines — six times Theta's
// router count, so they exercise the route and link tables, the lazy
// gateway shards and the sharded construction at a size the preset suites
// never reach. Everything here samples rather than sweeps: the whole file
// must stay comfortably under ten seconds so it runs in the ordinary test
// tier, not a nightly job.

import (
	"errors"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

const scaleTestRouters = 5000

// eachScale runs f per synthesized big machine (one per family).
func eachScale(t *testing.T, f func(t *testing.T, ic topology.Interconnect)) {
	for _, family := range []string{"df", "dfplus"} {
		family := family
		t.Run(family, func(t *testing.T) {
			m, err := topology.ScaleConfig(family, scaleTestRouters)
			if err != nil {
				t.Fatal(err)
			}
			ic, err := m.Build()
			if err != nil {
				t.Fatal(err)
			}
			if ic.NumRouters() < scaleTestRouters {
				t.Fatalf("shape has %d routers, want >= %d", ic.NumRouters(), scaleTestRouters)
			}
			f(t, ic)
		})
	}
}

// TestScaleSampledRoutesValid: on a >=5k-router machine every sampled route,
// minimal and adaptive, passes the physical/VC validator and lands at the
// destination.
func TestScaleSampledRoutesValid(t *testing.T) {
	eachScale(t, func(t *testing.T, ic topology.Interconnect) {
		for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
			rng := des.NewRNG(11, "scale-routes")
			ch := routing.NewChooserOpts(ic, mech, rng.Stream("route"), nil, routing.Options{})
			for i := 0; i < 400; i++ {
				src := topology.NodeID(rng.Intn(ic.NumNodes()))
				dst := topology.NodeID(rng.Intn(ic.NumNodes()))
				p, err := ch.TryRoute(src, dst)
				if err != nil {
					t.Fatalf("%v route %d->%d: %v", mech, src, dst, err)
				}
				if err := routing.Validate(ic, ic.RouterOfNode(src), ic.RouterOfNode(dst), p); err != nil {
					t.Fatalf("%v route %d->%d invalid: %v", mech, src, dst, err)
				}
				ch.Release(p)
			}
		}
	})
}

// TestScaleGatewayLivenessUnderFaults: with a fifth of the global links dead,
// sampled routes on the big machine must either be fully live (no dead
// router, no dead local link, validated) or fail with the typed
// ErrUnreachable — and at this fault rate the machine must remain almost
// entirely connected, so reachability is the common case.
func TestScaleGatewayLivenessUnderFaults(t *testing.T) {
	eachScale(t, func(t *testing.T, ic topology.Interconnect) {
		set, err := faults.Resolve(&faults.Spec{GlobalFrac: 0.2, LocalFrac: 0.02, Seed: 13}, ic)
		if err != nil {
			t.Fatal(err)
		}
		rng := des.NewRNG(17, "scale-faults")
		ch := routing.NewChooserOpts(ic, routing.Adaptive, rng.Stream("route"), nil, routing.Options{Health: set})
		reach, unreach := 0, 0
		for i := 0; i < 300; i++ {
			src := topology.NodeID(rng.Intn(ic.NumNodes()))
			dst := topology.NodeID(rng.Intn(ic.NumNodes()))
			p, err := ch.TryRoute(src, dst)
			if err != nil {
				if !errors.Is(err, routing.ErrUnreachable) {
					t.Fatalf("route %d->%d: untyped failure: %v", src, dst, err)
				}
				unreach++
				continue
			}
			if err := routing.Validate(ic, ic.RouterOfNode(src), ic.RouterOfNode(dst), p); err != nil {
				t.Fatalf("route %d->%d invalid: %v", src, dst, err)
			}
			for _, h := range p.Hops {
				if !set.RouterUp(h.From) || !set.RouterUp(h.To) {
					t.Fatalf("route %d->%d traverses failed router (%d->%d)", src, dst, h.From, h.To)
				}
				if h.Kind == routing.Local && !set.LocalLinkUp(h.From, h.To) {
					t.Fatalf("route %d->%d traverses failed local link %d-%d", src, dst, h.From, h.To)
				}
			}
			reach++
		}
		if reach < unreach {
			t.Fatalf("only %d/%d sampled pairs reachable at 20%% global faults — machine effectively partitioned", reach, reach+unreach)
		}
	})
}

// TestScaleSymmetryInvariants checks the structural regularities the route
// and link tables depend on: equal-population group-major groups, next hops
// and local neighbors that stay inside their group (sampled), and every
// sampled group pair owning at least one gateway in each direction (the
// round-robin global wiring's all-pairs guarantee).
func TestScaleSymmetryInvariants(t *testing.T) {
	eachScale(t, func(t *testing.T, ic topology.Interconnect) {
		nG, nR := ic.NumGroups(), ic.NumRouters()
		if nR%nG != 0 {
			t.Fatalf("%d routers do not divide into %d equal groups", nR, nG)
		}
		rpg := nR / nG
		for r := 0; r < nR; r += rpg * 37 / 11 { // stride through groups
			if got := ic.GroupOfRouter(topology.RouterID(r)); got != r/rpg {
				t.Fatalf("router %d: group %d, want %d (groups not router-major uniform)", r, got, r/rpg)
			}
		}

		rng := des.NewRNG(19, "scale-sym")
		inGroup := func(r topology.RouterID, g int) bool { return int(r)/rpg == g }
		for i := 0; i < 2000; i++ {
			g := rng.Intn(nG)
			base := g * rpg
			cur := topology.RouterID(base + rng.Intn(rpg))
			dst := topology.RouterID(base + rng.Intn(rpg))
			if next := ic.LocalNextHop(cur, dst); !inGroup(next, g) {
				t.Fatalf("group %d: next hop %d->%d = %d leaves the group", g, cur, dst, next)
			}
			for _, v := range ic.LocalNeighbors(cur) {
				if !inGroup(v, g) {
					t.Fatalf("group %d: router %d lists local neighbor %d outside the group", g, cur, v)
				}
			}
		}

		for i := 0; i < 200; i++ {
			a, b := rng.Intn(nG), rng.Intn(nG)
			if a == b {
				continue
			}
			if len(ic.Gateways(a, b)) == 0 || len(ic.Gateways(b, a)) == 0 {
				t.Fatalf("group pair (%d,%d) has no gateway in one direction — global wiring misses pairs", a, b)
			}
		}
	})
}
