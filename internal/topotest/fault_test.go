package topotest

import (
	"errors"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// liveGlobal indexes the machine's global cables by directed router pair, so
// a route's global hop can be checked against the health view without port
// information on the hop itself: the hop is legitimate only if at least one
// parallel cable between the pair is up in that direction.
type liveGlobal map[[2]topology.RouterID][]int

func indexGlobals(ic topology.Interconnect) liveGlobal {
	idx := liveGlobal{}
	for _, c := range ic.GlobalConns() {
		idx[[2]topology.RouterID{c.A, c.B}] = append(idx[[2]topology.RouterID{c.A, c.B}], c.APort)
		idx[[2]topology.RouterID{c.B, c.A}] = append(idx[[2]topology.RouterID{c.B, c.A}], c.BPort)
	}
	return idx
}

func (lg liveGlobal) anyUp(set *faults.Set, from, to topology.RouterID) bool {
	for _, port := range lg[[2]topology.RouterID{from, to}] {
		if set.GlobalLinkUp(from, port) {
			return true
		}
	}
	return false
}

// TestFaultRoutesAvoidDeadEquipment: on every registered machine preset, with
// a seeded random fault draw degrading routers and both link classes, every
// route the fault-aware chooser produces (both mechanisms) must pass the
// physical/VC validator — VC classes stay monotone, the deadlock-freedom
// witness — and never touch a failed router, local link, or global cable;
// every routing failure must be the typed ErrUnreachable.
func TestFaultRoutesAvoidDeadEquipment(t *testing.T) {
	Each(t, func(t *testing.T, m topology.Machine, ic topology.Interconnect) {
		set, err := faults.Resolve(&faults.Spec{GlobalFrac: 0.15, LocalFrac: 0.05, Routers: 2, Seed: 3}, ic)
		if err != nil {
			t.Fatal(err)
		}
		globals := indexGlobals(ic)
		for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
			rng := des.NewRNG(1, "topotest/faults")
			ch := routing.NewChooserOpts(ic, mech, rng.Stream("route"), nil, routing.Options{Health: set})
			reached := 0
			for i := 0; i < 150; i++ {
				src := topology.NodeID(rng.Intn(ic.NumNodes()))
				dst := topology.NodeID(rng.Intn(ic.NumNodes()))
				if src == dst {
					continue
				}
				p, err := ch.TryRoute(src, dst)
				if err != nil {
					if !errors.Is(err, routing.ErrUnreachable) {
						t.Fatalf("%v %d->%d: untyped routing failure: %v", mech, src, dst, err)
					}
					continue
				}
				reached++
				rs, rd := ic.RouterOfNode(src), ic.RouterOfNode(dst)
				if err := routing.Validate(ic, rs, rd, p); err != nil {
					t.Fatalf("%v %d->%d: invalid route: %v\npath: %+v", mech, src, dst, err, p.Hops)
				}
				if g := p.GlobalHops(); g > routing.NumGlobalVC {
					t.Fatalf("%v %d->%d: %d global hops exceed the VC budget %d", mech, src, dst, g, routing.NumGlobalVC)
				}
				for _, h := range p.Hops {
					if !set.RouterUp(h.From) || !set.RouterUp(h.To) {
						t.Fatalf("%v %d->%d: hop %d->%d touches a failed router", mech, src, dst, h.From, h.To)
					}
					switch h.Kind {
					case routing.Local:
						if !set.LocalLinkUp(h.From, h.To) {
							t.Fatalf("%v %d->%d: hop traverses failed local link %d-%d", mech, src, dst, h.From, h.To)
						}
					case routing.Global:
						if !globals.anyUp(set, h.From, h.To) {
							t.Fatalf("%v %d->%d: hop traverses dead global pair %d-%d", mech, src, dst, h.From, h.To)
						}
					}
				}
				ch.Release(p)
			}
			if reached == 0 {
				t.Fatalf("%v: the 15%%-degraded %s machine routed no sampled pair at all", mech, ic.Name())
			}
		}
	})
}

// TestPartitionedGroupUnreachable: cutting every global cable of group 0
// partitions it from the rest of the machine on every preset. Cross-partition
// routes must fail with ErrUnreachable in both directions, while intra-group
// traffic inside the severed group still routes.
func TestPartitionedGroupUnreachable(t *testing.T) {
	Each(t, func(t *testing.T, m topology.Machine, ic topology.Interconnect) {
		if ic.NumGroups() < 2 {
			t.Skip("single-group machine cannot partition")
		}
		spec := &faults.Spec{}
		for _, c := range ic.GlobalConns() {
			if ic.GroupOfRouter(c.A) == 0 || ic.GroupOfRouter(c.B) == 0 {
				spec.Fail = append(spec.Fail, faults.Target{Kind: faults.Link, A: int(c.A), B: int(c.B)})
			}
		}
		set, err := faults.Resolve(spec, ic)
		if err != nil {
			t.Fatal(err)
		}
		// One node inside group 0, one in group 0 on a different router (when
		// the group has several routers), one outside.
		var inside, inside2, outside topology.NodeID = -1, -1, -1
		for n := 0; n < ic.NumNodes(); n++ {
			id := topology.NodeID(n)
			r := ic.RouterOfNode(id)
			if ic.GroupOfRouter(r) == 0 {
				if inside < 0 {
					inside = id
				} else if inside2 < 0 && ic.RouterOfNode(inside) != r {
					inside2 = id
				}
			} else if outside < 0 {
				outside = id
			}
		}
		if inside < 0 || outside < 0 {
			t.Fatalf("machine %s has no node split across groups", ic.Name())
		}
		for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
			rng := des.NewRNG(1, "topotest/partition")
			ch := routing.NewChooserOpts(ic, mech, rng.Stream("route"), nil, routing.Options{Health: set})
			for _, dir := range [][2]topology.NodeID{{inside, outside}, {outside, inside}} {
				_, err := ch.TryRoute(dir[0], dir[1])
				if err == nil {
					t.Fatalf("%v: route %d->%d crossed a severed partition", mech, dir[0], dir[1])
				}
				if !errors.Is(err, routing.ErrUnreachable) {
					t.Fatalf("%v: partition failure is not ErrUnreachable: %v", mech, err)
				}
				var ue *routing.UnreachableError
				if !errors.As(err, &ue) {
					t.Fatalf("%v: partition failure carries no router pair: %v", mech, err)
				}
			}
			if inside2 >= 0 {
				p, err := ch.TryRoute(inside, inside2)
				if err != nil {
					t.Fatalf("%v: intra-group route inside the severed group failed: %v", mech, err)
				}
				if err := routing.Validate(ic, ic.RouterOfNode(inside), ic.RouterOfNode(inside2), p); err != nil {
					t.Fatalf("%v: intra-group route invalid: %v", mech, err)
				}
			}
		}
	})
}

// TestDynamicRepairRestoresRoutes: failing a router and repairing it (the
// dynamic-event path: mutate the set, rebuild the chooser's health tables)
// returns routing to it on every small preset.
func TestDynamicRepairRestoresRoutes(t *testing.T) {
	EachSmall(t, func(t *testing.T, m topology.Machine, ic topology.Interconnect) {
		set, err := faults.Resolve(&faults.Spec{}, ic)
		if err != nil {
			t.Fatal(err)
		}
		var victim topology.RouterID = -1
		var node topology.NodeID
		for n := 0; n < ic.NumNodes(); n++ {
			if r := ic.RouterOfNode(topology.NodeID(n)); victim < 0 {
				victim, node = r, topology.NodeID(n)
			}
		}
		var far topology.NodeID = -1
		for n := 0; n < ic.NumNodes(); n++ {
			if ic.RouterOfNode(topology.NodeID(n)) != victim {
				far = topology.NodeID(n)
				break
			}
		}
		if far < 0 {
			t.Skip("single-router machine")
		}
		rng := des.NewRNG(1, "topotest/repair")
		ch := routing.NewChooserOpts(ic, routing.Minimal, rng.Stream("route"), nil, routing.Options{Health: set})
		if _, err := ch.TryRoute(far, node); err != nil {
			t.Fatalf("healthy route failed: %v", err)
		}
		set.Apply(faults.Event{Target: faults.Target{Kind: faults.Router, A: int(victim)}})
		ch.RebuildHealth()
		if _, err := ch.TryRoute(far, node); !errors.Is(err, routing.ErrUnreachable) {
			t.Fatalf("route to a failed router did not fail typed: %v", err)
		}
		set.Apply(faults.Event{Target: faults.Target{Kind: faults.Router, A: int(victim)}, Repair: true})
		ch.RebuildHealth()
		p, err := ch.TryRoute(far, node)
		if err != nil {
			t.Fatalf("repair did not restore routing: %v", err)
		}
		if err := routing.Validate(ic, ic.RouterOfNode(far), victim, p); err != nil {
			t.Fatalf("post-repair route invalid: %v", err)
		}
	})
}
