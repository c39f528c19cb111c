package routing_test

import (
	"errors"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// fuzzCong is a deterministic pseudo-random congestion oracle: it gives the
// adaptive policy non-trivial, reproducible backlog readings so fuzzing
// exercises the Valiant/misroute branches, not just minimal paths.
type fuzzCong struct{ salt int64 }

func (c fuzzCong) OutputBacklog(from, to topology.RouterID) int64 {
	h := uint64(c.salt)*0x9e3779b97f4a7c15 + uint64(from)*0xbf58476d1ce4e5b9 + uint64(to)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 27
	return int64(h % (1 << 20))
}

// fuzzTopology derives a small but structurally varied dragonfly from raw
// fuzz bytes: 1-6 groups, 1-3 x 1-5 router grids, 1-4 nodes per router,
// with enough global ports that every group pair is wired (the generators'
// own precondition — unconnected pairs are a config error, not a routing
// bug).
func fuzzTopology(groups, rows, cols, nodesPer, extraPorts uint8) (*topology.Dragonfly, error) {
	cfg := topology.Config{
		Groups:            1 + int(groups)%6,
		Rows:              1 + int(rows)%3,
		Cols:              1 + int(cols)%5,
		NodesPerRouter:    1 + int(nodesPer)%4,
		ChassisPerCabinet: 1 + int(rows)%2,
	}
	if cfg.Groups > 1 {
		rpg := cfg.Rows * cfg.Cols
		need := (cfg.Groups - 2) / rpg // ceil((Groups-1)/rpg) - adjusted below
		cfg.GlobalPortsPerRouter = need + 1 + int(extraPorts)%3
	}
	return topology.New(cfg)
}

// fuzzPlusTopology derives a small Dragonfly+ machine from the same raw
// bytes: 1-5 groups of 1-4 leaves x 1-3 spines with 1-4 nodes per leaf, and
// enough spine global ports that every group pair gets a gateway (the
// routing generators' precondition, as for the XC40 shape above).
func fuzzPlusTopology(groups, rows, cols, nodesPer, extraPorts uint8) (*topology.DragonflyPlus, error) {
	cfg := topology.PlusConfig{
		Groups:            1 + int(groups)%5,
		Leaves:            1 + int(rows)%4,
		Spines:            1 + int(cols)%3,
		NodesPerLeaf:      1 + int(nodesPer)%4,
		LeavesPerChassis:  1 + int(rows)%2,
		ChassisPerCabinet: 1 + int(cols)%2,
	}
	if cfg.Groups > 1 {
		need := (cfg.Groups - 1 + cfg.Spines - 1) / cfg.Spines // ceil((Groups-1)/Spines)
		cfg.GlobalPortsPerSpine = need + int(extraPorts)%3
	}
	return topology.NewPlus(cfg)
}

// FuzzRoute: for arbitrary machine shapes, endpoints, seeds, and routing
// options, every computed route must terminate, traverse only physical
// links with contiguous hops, keep VC classes monotone (the deadlock-freedom
// witness), and end at the destination router. A panic or a Validate error
// is a routing bug.
func FuzzRoute(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(3), uint8(1), uint8(0), uint16(0), uint16(40), int64(1), true, uint8(0), uint8(2), int8(0), uint8(0))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint16(1), int64(7), false, uint8(0), uint8(0), int8(0), uint8(0))
	f.Add(uint8(4), uint8(2), uint8(4), uint8(2), uint8(2), uint16(13), uint16(57), int64(42), true, uint8(1), uint8(3), int8(-1), uint8(0))
	f.Add(uint8(5), uint8(1), uint8(2), uint8(3), uint8(1), uint16(9), uint16(9), int64(3), true, uint8(2), uint8(1), int8(100), uint8(0))
	f.Add(uint8(1), uint8(2), uint8(4), uint8(1), uint8(0), uint16(5), uint16(2), int64(11), false, uint8(1), uint8(0), int8(5), uint8(0))
	f.Add(uint8(3), uint8(1), uint8(2), uint8(1), uint8(0), uint16(0), uint16(40), int64(1), true, uint8(0), uint8(2), int8(0), uint8(1))
	f.Add(uint8(4), uint8(3), uint8(1), uint8(2), uint8(1), uint16(13), uint16(57), int64(42), true, uint8(1), uint8(3), int8(-1), uint8(1))
	f.Add(uint8(2), uint8(0), uint8(2), uint8(3), uint8(2), uint16(9), uint16(3), int64(3), false, uint8(2), uint8(1), int8(7), uint8(1))
	f.Fuzz(func(t *testing.T, groups, rows, cols, nodesPer, extraPorts uint8,
		srcRaw, dstRaw uint16, seed int64, adaptive bool, gwPolicy, valiant uint8, bias int8, family uint8) {
		// family selects the machine: even = XC40 dragonfly, odd = Dragonfly+.
		var topo topology.Interconnect
		var err error
		if family%2 == 0 {
			topo, err = fuzzTopology(groups, rows, cols, nodesPer, extraPorts)
		} else {
			topo, err = fuzzPlusTopology(groups, rows, cols, nodesPer, extraPorts)
		}
		if err != nil {
			t.Skip()
		}
		if topo.NumNodes() < 2 {
			t.Skip()
		}
		src := topology.NodeID(int(srcRaw) % topo.NumNodes())
		dst := topology.NodeID(int(dstRaw) % topo.NumNodes())
		if src == dst {
			dst = topology.NodeID((int(dst) + 1) % topo.NumNodes())
		}
		mech := routing.Minimal
		if adaptive {
			mech = routing.Adaptive
		}
		opts := routing.Options{
			Gateway:           routing.GatewayPolicy(int(gwPolicy) % 3),
			ValiantCandidates: int(valiant) % 4,
			MinimalBias:       int64(bias),
		}
		rng := des.NewRNG(seed, "fuzz").Stream("route")
		ch := routing.NewChooserOpts(topo, mech, rng, fuzzCong{salt: seed}, opts)
		rs, rd := topo.RouterOfNode(src), topo.RouterOfNode(dst)
		// Route repeatedly: gateway spreading and Valiant sampling make each
		// call a fresh random path through the option space.
		for i := 0; i < 8; i++ {
			p := ch.Route(src, dst)
			if err := routing.Validate(topo, rs, rd, p); err != nil {
				t.Fatalf("machine %s %v opts %+v %d->%d: invalid route: %v\npath: %+v",
					topo.Name(), mech, opts, src, dst, err, p.Hops)
			}
			// Termination bound: worst case is Valiant through a third group
			// (2 local + global + 2 local to the intermediate, then again to
			// the destination) — anything longer means the builder wandered.
			if len(p.Hops) > 10 {
				t.Fatalf("route %d->%d has %d hops: %+v", src, dst, len(p.Hops), p.Hops)
			}
			if g := p.GlobalHops(); g > routing.NumGlobalVC {
				t.Fatalf("route %d->%d crosses %d global links (VC classes allow %d)",
					src, dst, g, routing.NumGlobalVC)
			}
		}
	})
}

// FuzzPolicy is the policy-SPI fuzzer: for arbitrary machine shapes, fault
// draws, and any installed routing policy — including the stateful
// congestion-learning qadaptive fed fuzzed saturation events — every
// TryRoute outcome must be a valid route or the typed ErrUnreachable, never
// a panic, an invalid hop, or an untyped error. While the draw fails no
// local link and no router, every intra-group segment must also take the
// machine's canonical LocalNextHop route, as on a healthy fabric. It is the
// property twin of policytest.Contract: the contract pins determinism on
// fixed machines, the fuzzer hunts violations across the shape space.
func FuzzPolicy(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(3), uint8(1), uint8(0), uint16(0), uint16(40), int64(1), uint8(2), uint8(0), uint8(0), uint16(9), uint8(0))
	f.Add(uint8(4), uint8(2), uint8(4), uint8(2), uint8(2), uint16(13), uint16(57), int64(42), uint8(2), uint8(40), uint8(10), uint16(1000), uint8(0))
	f.Add(uint8(5), uint8(1), uint8(2), uint8(3), uint8(1), uint16(9), uint16(9), int64(3), uint8(0), uint8(100), uint8(0), uint16(0), uint8(1))
	f.Add(uint8(2), uint8(0), uint8(2), uint8(3), uint8(2), uint16(9), uint16(3), int64(3), uint8(1), uint8(25), uint8(25), uint16(77), uint8(1))
	f.Add(uint8(6), uint8(2), uint8(3), uint8(1), uint8(2), uint16(200), uint16(7), int64(11), uint8(2), uint8(0), uint8(90), uint16(50_000), uint8(0))
	// Global cables cut, local links intact.
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint16(0), uint16(150), int64(5), uint8(0), uint8(20), uint8(0), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, groups, rows, cols, nodesPer, extraPorts uint8,
		srcRaw, dstRaw uint16, seed int64, policySel, globalPct, localPct uint8, satRaw uint16, family uint8) {
		var topo topology.Interconnect
		var err error
		if family%2 == 0 {
			topo, err = fuzzTopology(groups, rows, cols, nodesPer, extraPorts)
		} else {
			topo, err = fuzzPlusTopology(groups, rows, cols, nodesPer, extraPorts)
		}
		if err != nil {
			t.Skip()
		}
		if topo.NumNodes() < 2 {
			t.Skip()
		}
		var factory routing.PolicyFactory
		switch policySel % 3 {
		case 0:
			factory = func() routing.Policy { return routing.BuiltinPolicy(routing.Minimal) }
		case 1:
			factory = func() routing.Policy { return routing.BuiltinPolicy(routing.Adaptive) }
		default:
			factory = func() routing.Policy { return routing.NewQAdaptivePolicy(routing.QAdaptiveConfig{}) }
		}
		opts := routing.Options{Policy: factory}
		var set *faults.Set
		var liveGlobal map[[2]topology.RouterID]bool
		degraded := globalPct%101 != 0 || localPct%101 != 0
		if degraded {
			spec := &faults.Spec{
				GlobalFrac: float64(globalPct%101) / 100,
				LocalFrac:  float64(localPct%101) / 100,
				Seed:       seed,
			}
			set, err = faults.Resolve(spec, topo)
			if err != nil {
				t.Fatalf("in-range spec %v rejected: %v", spec, err)
			}
			opts.Health = set
			liveGlobal = map[[2]topology.RouterID]bool{}
			for _, c := range topo.GlobalConns() {
				if set.GlobalLinkUp(c.A, c.APort) {
					liveGlobal[[2]topology.RouterID{c.A, c.B}] = true
				}
				if set.GlobalLinkUp(c.B, c.BPort) {
					liveGlobal[[2]topology.RouterID{c.B, c.A}] = true
				}
			}
		}
		src := topology.NodeID(int(srcRaw) % topo.NumNodes())
		dst := topology.NodeID(int(dstRaw) % topo.NumNodes())
		if src == dst {
			dst = topology.NodeID((int(dst) + 1) % topo.NumNodes())
		}
		rng := des.NewRNG(seed, "fuzz-policy").Stream("route")
		ch := routing.NewChooserOpts(topo, routing.Minimal, rng, fuzzCong{salt: seed}, opts)
		fb := ch.Feedback()
		rs, rd := topo.RouterOfNode(src), topo.RouterOfNode(dst)
		nr := topo.NumRouters()
		for i := 0; i < 8; i++ {
			// Fuzzed reward inputs: arbitrary directed router pairs and link
			// kinds must never corrupt a learning policy's tables.
			if fb != nil {
				from := topology.RouterID((int(satRaw) + i) % nr)
				to := topology.RouterID((int(satRaw) >> 4) % nr)
				kind := routing.Global
				if i%2 == 1 {
					kind = routing.Local
				}
				fb.ObserveSaturation(from, to, kind)
			}
			p, err := ch.TryRoute(src, dst)
			if err != nil {
				if !degraded {
					t.Fatalf("machine %s policy %d %d->%d: error on healthy fabric: %v",
						topo.Name(), policySel%3, src, dst, err)
				}
				if !errors.Is(err, routing.ErrUnreachable) {
					t.Fatalf("machine %s policy %d %d->%d: untyped failure: %v",
						topo.Name(), policySel%3, src, dst, err)
				}
				continue
			}
			if err := routing.Validate(topo, rs, rd, p); err != nil {
				t.Fatalf("machine %s policy %d %d->%d: invalid route: %v\npath: %+v",
					topo.Name(), policySel%3, src, dst, err, p.Hops)
			}
			if g := p.GlobalHops(); g > routing.NumGlobalVC {
				t.Fatalf("route %d->%d crosses %d global links (VC classes allow %d)", src, dst, g, routing.NumGlobalVC)
			}
			if !degraded || set.DownLocalLinks() == 0 && len(set.DownRouters()) == 0 {
				checkCanonicalSegments(t, topo, p)
			}
			if degraded {
				for _, h := range p.Hops {
					if !set.RouterUp(h.From) || !set.RouterUp(h.To) {
						t.Fatalf("policy %d %d->%d: hop %d->%d touches a failed router", policySel%3, src, dst, h.From, h.To)
					}
					switch h.Kind {
					case routing.Local:
						if !set.LocalLinkUp(h.From, h.To) {
							t.Fatalf("policy %d %d->%d: hop traverses failed local link %d-%d", policySel%3, src, dst, h.From, h.To)
						}
					case routing.Global:
						if !liveGlobal[[2]topology.RouterID{h.From, h.To}] {
							t.Fatalf("policy %d %d->%d: hop traverses dead global pair %d-%d", policySel%3, src, dst, h.From, h.To)
						}
					}
				}
			}
			ch.Release(p)
		}
	})
}

// FuzzRouteFaults is the degraded-fabric companion of FuzzRoute (whose
// signature and corpus stay frozen): arbitrary machine shapes carry an
// arbitrary seeded fault draw, and every TryRoute outcome must be either a
// valid route touching only live equipment or the typed ErrUnreachable —
// never a panic, a hang, or an untyped error.
func FuzzRouteFaults(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(3), uint8(1), uint8(0), uint16(0), uint16(40), int64(1), true, uint8(40), uint8(10), uint8(1), uint8(0))
	f.Add(uint8(4), uint8(2), uint8(4), uint8(2), uint8(2), uint16(13), uint16(57), int64(42), false, uint8(100), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(5), uint8(1), uint8(2), uint8(3), uint8(1), uint16(9), uint16(9), int64(3), true, uint8(0), uint8(60), uint8(3), uint8(1))
	f.Add(uint8(2), uint8(0), uint8(2), uint8(3), uint8(2), uint16(9), uint16(3), int64(3), false, uint8(25), uint8(25), uint8(2), uint8(1))
	f.Add(uint8(6), uint8(2), uint8(3), uint8(1), uint8(2), uint16(200), uint16(7), int64(11), true, uint8(90), uint8(90), uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, groups, rows, cols, nodesPer, extraPorts uint8,
		srcRaw, dstRaw uint16, seed int64, adaptive bool, globalPct, localPct, routersK, family uint8) {
		var topo topology.Interconnect
		var err error
		if family%2 == 0 {
			topo, err = fuzzTopology(groups, rows, cols, nodesPer, extraPorts)
		} else {
			topo, err = fuzzPlusTopology(groups, rows, cols, nodesPer, extraPorts)
		}
		if err != nil {
			t.Skip()
		}
		if topo.NumNodes() < 2 {
			t.Skip()
		}
		spec := &faults.Spec{
			GlobalFrac: float64(globalPct%101) / 100,
			LocalFrac:  float64(localPct%101) / 100,
			Routers:    int(routersK) % (topo.NumRouters() + 1),
			Seed:       seed,
		}
		set, err := faults.Resolve(spec, topo)
		if err != nil {
			t.Fatalf("in-range spec %v rejected: %v", spec, err)
		}
		liveGlobal := map[[2]topology.RouterID]bool{}
		for _, c := range topo.GlobalConns() {
			if set.GlobalLinkUp(c.A, c.APort) {
				liveGlobal[[2]topology.RouterID{c.A, c.B}] = true
			}
			if set.GlobalLinkUp(c.B, c.BPort) {
				liveGlobal[[2]topology.RouterID{c.B, c.A}] = true
			}
		}
		src := topology.NodeID(int(srcRaw) % topo.NumNodes())
		dst := topology.NodeID(int(dstRaw) % topo.NumNodes())
		if src == dst {
			dst = topology.NodeID((int(dst) + 1) % topo.NumNodes())
		}
		mech := routing.Minimal
		if adaptive {
			mech = routing.Adaptive
		}
		rng := des.NewRNG(seed, "fuzz-faults").Stream("route")
		ch := routing.NewChooserOpts(topo, mech, rng, fuzzCong{salt: seed}, routing.Options{Health: set})
		rs, rd := topo.RouterOfNode(src), topo.RouterOfNode(dst)
		for i := 0; i < 8; i++ {
			p, err := ch.TryRoute(src, dst)
			if err != nil {
				if !errors.Is(err, routing.ErrUnreachable) {
					t.Fatalf("machine %s %v %d->%d: untyped failure: %v", topo.Name(), mech, src, dst, err)
				}
				continue
			}
			if err := routing.Validate(topo, rs, rd, p); err != nil {
				t.Fatalf("machine %s %v %d->%d: invalid route: %v\npath: %+v",
					topo.Name(), mech, src, dst, err, p.Hops)
			}
			if g := p.GlobalHops(); g > routing.NumGlobalVC {
				t.Fatalf("route %d->%d crosses %d global links (VC classes allow %d)", src, dst, g, routing.NumGlobalVC)
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
					if !liveGlobal[[2]topology.RouterID{h.From, h.To}] {
						t.Fatalf("%v %d->%d: hop traverses dead global pair %d-%d", mech, src, dst, h.From, h.To)
					}
				}
			}
			ch.Release(p)
		}
	})
}
