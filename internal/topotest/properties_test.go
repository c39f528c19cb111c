package topotest_test

import (
	"slices"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/des"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
	"dragonfly/internal/trace"
)

// saltCong is a deterministic pseudo-random congestion oracle: it gives the
// adaptive policy non-trivial, reproducible backlog readings so the property
// tests exercise the Valiant and misroute branches on every machine, not
// just minimal paths.
type saltCong struct{ salt int64 }

func (c saltCong) OutputBacklog(from, to topology.RouterID) int64 {
	h := uint64(c.salt)*0x9e3779b97f4a7c15 + uint64(from)*0xbf58476d1ce4e5b9 + uint64(to)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 27
	return int64(h % (1 << 20))
}

// TestRouteValidEveryMachine: on every registered machine, both mechanisms
// route randomly sampled node pairs over physical links with contiguous
// hops, monotone VC classes (the deadlock-freedom witness), bounded length,
// and within the 2-global-hop VC budget. This is the SPI's core routing
// contract: any new Interconnect must pass unchanged.
func TestRouteValidEveryMachine(t *testing.T) {
	topotest.Each(t, func(t *testing.T, m topology.Machine, ic topology.Interconnect) {
		for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
			mech := mech
			t.Run(mech.String(), func(t *testing.T) {
				rng := des.NewRNG(7, "topotest").Stream("route")
				ch := routing.NewChooser(ic, mech, rng.Stream("chooser"), saltCong{salt: 11})
				n := ic.NumNodes()
				for i := 0; i < 400; i++ {
					src := topology.NodeID(rng.Intn(n))
					dst := topology.NodeID(rng.Intn(n))
					if src == dst {
						dst = topology.NodeID((int(dst) + 1) % n)
					}
					p := ch.Route(src, dst)
					rs, rd := ic.RouterOfNode(src), ic.RouterOfNode(dst)
					if err := routing.Validate(ic, rs, rd, p); err != nil {
						t.Fatalf("%s %v %d->%d: invalid route: %v\npath: %+v",
							ic.Name(), mech, src, dst, err, p.Hops)
					}
					// Worst case is Valiant through a third group; anything
					// longer means the builder wandered.
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
	})
}

// TestLocalRoutesAreShortest: on every machine, including one whose groups
// are not wired alike, for every intra-group pair LocalDistance is the BFS
// hop count over LocalNeighbors, and LocalNextHop is a neighbor one hop
// closer to the destination. The routing chooser builds its tables by BFS
// and keeps LocalNextHop wherever it is one hop closer, so this is what
// makes a healthy chooser route on exactly the canonical routes.
func TestLocalRoutesAreShortest(t *testing.T) {
	check := func(t *testing.T, ic topology.Interconnect) {
		rpg := ic.NumRouters() / ic.NumGroups()
		dist := make([]int, rpg)
		for d := 0; d < ic.NumRouters(); d++ {
			dst := topology.RouterID(d)
			base := ic.GroupOfRouter(dst) * rpg
			for i := range dist {
				dist[i] = -1
			}
			dist[d-base] = 0
			for q := []topology.RouterID{dst}; len(q) > 0; q = q[1:] {
				u := q[0]
				for _, v := range ic.LocalNeighbors(u) {
					if dist[int(v)-base] < 0 {
						dist[int(v)-base] = dist[int(u)-base] + 1
						q = append(q, v)
					}
				}
			}
			for i, bfs := range dist {
				v := topology.RouterID(base + i)
				if bfs < 0 {
					t.Fatalf("router %d cannot reach %d over local links", v, dst)
				}
				if got := ic.LocalDistance(v, dst); got != bfs {
					t.Fatalf("LocalDistance(%d, %d) = %d, BFS finds %d", v, dst, got, bfs)
				}
				if v == dst {
					continue
				}
				h := ic.LocalNextHop(v, dst)
				if !slices.Contains(ic.LocalNeighbors(v), h) || dist[int(h)-base] != bfs-1 {
					t.Fatalf("LocalNextHop(%d, %d) = %d is not a neighbor one hop closer", v, dst, h)
				}
			}
		}
	}
	topotest.Each(t, func(t *testing.T, _ topology.Machine, ic topology.Interconnect) { check(t, ic) })
	t.Run("column-first", func(t *testing.T) { check(t, topotest.ColumnFirst(t)) })
}

// TestPlacementPartitionsEveryMachine: each of the five policies yields
// distinct in-range nodes on every machine, with Remaining the exact
// complement — the contract the background-traffic carve-out relies on.
func TestPlacementPartitionsEveryMachine(t *testing.T) {
	topotest.Each(t, func(t *testing.T, m topology.Machine, ic topology.Interconnect) {
		rng := des.NewRNG(3, "topotest").Stream("placement")
		size := ic.NumNodes() / 3
		if size < 1 {
			size = 1
		}
		for _, pol := range placement.All() {
			nodes, err := placement.Allocate(ic, pol, size, rng)
			if err != nil {
				t.Fatalf("%s: Allocate(%v, %d): %v", ic.Name(), pol, size, err)
			}
			if len(nodes) != size {
				t.Fatalf("%s: Allocate(%v, %d) returned %d nodes", ic.Name(), pol, size, len(nodes))
			}
			seen := make(map[topology.NodeID]bool, size)
			for _, nd := range nodes {
				if int(nd) < 0 || int(nd) >= ic.NumNodes() {
					t.Fatalf("%s: %v allocated out-of-range node %d", ic.Name(), pol, nd)
				}
				if seen[nd] {
					t.Fatalf("%s: %v allocated node %d twice", ic.Name(), pol, nd)
				}
				seen[nd] = true
			}
			rest := placement.Remaining(ic, nodes)
			if len(rest)+len(nodes) != ic.NumNodes() {
				t.Fatalf("%s: %v: %d allocated + %d remaining != %d nodes",
					ic.Name(), pol, len(nodes), len(rest), ic.NumNodes())
			}
			for _, nd := range rest {
				if seen[nd] {
					t.Fatalf("%s: %v: node %d both allocated and remaining", ic.Name(), pol, nd)
				}
			}
		}
	})
}

// TestAuditCleanEveryMachine replays a small crystal-router job on every
// registered machine under both mechanisms with the runtime invariant
// auditor attached: credit conservation, byte/packet conservation, VC-class
// monotonicity, time monotonicity, and per-NIC FIFO injection must hold on
// every event, and the run must complete. core.Run fails on any violation.
func TestAuditCleanEveryMachine(t *testing.T) {
	tr, err := trace.CR(trace.CRConfig{Ranks: 16, MessageBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	topotest.Each(t, func(t *testing.T, m topology.Machine, ic topology.Interconnect) {
		for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
			res, err := core.Run(core.Config{
				Topology:  m,
				Params:    network.DefaultParams(),
				Placement: placement.RandomNode,
				Routing:   mech,
				Trace:     tr,
				Seed:      5,
				Audit:     true,
			})
			if err != nil {
				t.Fatalf("%s %v: %v", m.Label(), mech, err)
			}
			if !res.Completed {
				t.Fatalf("%s %v: run did not complete", m.Label(), mech)
			}
			if res.Audit == nil || len(res.Audit.Violations) != 0 {
				t.Fatalf("%s %v: audit summary missing or dirty: %+v", m.Label(), mech, res.Audit)
			}
		}
	})
}
