package routing

// Fault-aware routing: the degraded-fabric state of the chooser, installed
// with Options.Health. Only the chooser knows whether the fabric is
// degraded: the route builders in routing.go (MinimalPath, ValiantPath)
// serve both fabrics, and the switch sits in two places — the nextHop
// table they walk, which RebuildHealth refills with trees over the live
// local links, and the gateway picker (pickGateway when healthy,
// pickLiveGateway here). Policies make one decision over primitives that
// report infeasibility.
//
// Degraded-mode contract:
//
//   - Intra-group segments follow per-destination BFS trees over the live
//     local links, not the canonical DOR tables: a live shortest path is
//     taken even where the canonical route died, so routes may be longer
//     than the healthy 2-hop bound and may differ from DOR where DOR would
//     have survived.
//   - Inter-group routes pick among the live direct gateways (dead global
//     ports are never candidates — adaptive routing's "infinitely congested"
//     ports fall out by construction). When a group pair has no live direct
//     gateway, minimal routing falls back to a deterministic two-global-hop
//     detour through the first transit group that works; the VC classes of
//     that detour are exactly a Valiant path's, so the deadlock budget
//     (NumLocalVC/NumGlobalVC) still holds.
//   - Valiant candidates are only used when both segments route direct (a
//     segment needing its own detour would exceed the global-VC budget);
//     infeasible candidates are skipped, never substituted.
//   - A pair with no live route at all fails with ErrUnreachable from
//     TryRoute — a typed error, not a hang or a panic.
//
// Determinism: BFS order is the machine's LocalNeighbors order, transit
// search is first-match in group order, and random picks draw from the same
// named stream as healthy routing — a fault set plus seed always yields the
// same routes.

import (
	"errors"
	"fmt"

	"dragonfly/internal/topology"
)

// ErrUnreachable is the sentinel wrapped by every routing failure on a
// partitioned fabric; match it with errors.Is.
var ErrUnreachable = errors.New("destination unreachable on the faulted fabric")

// UnreachableError reports the router pair that has no live route. It wraps
// ErrUnreachable.
type UnreachableError struct {
	Src, Dst topology.RouterID
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("routing: no live route from router %d to router %d", e.Src, e.Dst)
}

func (e *UnreachableError) Unwrap() error { return ErrUnreachable }

const noRouter = topology.RouterID(-1)

// RebuildHealth recomputes the degraded-mode tables against the current
// Health view: per-destination BFS next hops (into nextHop) and live
// distances over the live local links of every group. The core layer calls
// it after every dynamic fault event; with a nil Health it is a no-op. Cost
// is O(routers x routersPerGroup), far off the per-packet path.
func (c *Chooser) RebuildHealth() {
	if c.health == nil {
		return
	}
	rpg := c.routersPerGroup
	if c.liveDist == nil {
		c.liveDist = make([]int32, len(c.nextHop))
		c.bfsQueue = make([]topology.RouterID, 0, rpg)
	}
	for i := range c.nextHop {
		c.nextHop[i] = noRouter
		c.liveDist[i] = -1
	}
	for g := 0; g < c.numGroups; g++ {
		base := g * rpg
		for j := 0; j < rpg; j++ {
			dst := topology.RouterID(base + j)
			if !c.health.RouterUp(dst) {
				continue
			}
			// Reverse BFS from dst: when u (closer to dst) discovers live
			// neighbor v, the next hop from v toward dst is u. Neighbor
			// order is the machine's LocalNeighbors order, so ties resolve
			// deterministically.
			c.liveDist[int(dst)*rpg+j] = 0
			q := append(c.bfsQueue[:0], dst)
			for len(q) > 0 {
				u := q[0]
				q = q[1:]
				du := c.liveDist[int(u)*rpg+j]
				for _, v := range c.topo.LocalNeighbors(u) {
					if c.liveDist[int(v)*rpg+j] >= 0 || !c.health.LocalLinkUp(u, v) {
						continue
					}
					c.liveDist[int(v)*rpg+j] = du + 1
					c.nextHop[int(v)*rpg+j] = u
					q = append(q, v)
				}
			}
		}
	}
}

// liveLocalDist is the live intra-group hop distance a -> b, or -1 when no
// live path exists. Both routers must share a group.
func (c *Chooser) liveLocalDist(a, b topology.RouterID) int32 {
	return c.liveDist[int(a)*c.routersPerGroup+int(b)-int(c.groupOf[a])*c.routersPerGroup]
}

// pickLiveGateway selects a live global link from group gs to gd usable from
// cur toward dst: the port and both endpoint routers are up, the gateway is
// live-reachable from cur, and its far end live-reaches dst. Selection
// follows the healthy gateway policy (spread / nearest / random) over live
// distances, drawing from the RNG only when the choice varies.
func (c *Chooser) pickLiveGateway(cur topology.RouterID, gs, gd int, dst topology.RouterID) (topology.Gateway, bool) {
	gws := c.topo.Gateways(gs, gd)
	cand := c.gwBuf[:0]
	dist := c.gwDistBuf[:0]
	dmin := int32(1 << 30)
	for _, gw := range gws {
		if !c.health.GlobalLinkUp(gw.Router, gw.Port) {
			continue
		}
		d := c.liveLocalDist(cur, gw.Router)
		if d < 0 || c.liveLocalDist(gw.Peer, dst) < 0 {
			continue
		}
		cand = append(cand, gw)
		dist = append(dist, d)
		if d < dmin {
			dmin = d
		}
	}
	c.gwBuf, c.gwDistBuf = cand[:0], dist[:0]
	if len(cand) == 0 {
		return topology.Gateway{}, false
	}
	// Admission threshold per policy: random takes all live candidates,
	// nearest the minimum distance, spread everything within one hop
	// (falling back to nearest when none is that close) — the healthy
	// policy applied to live distances.
	limit := dmin
	switch c.opts.Gateway {
	case GatewayRandom:
		limit = 1 << 30
	case GatewaySpread:
		if dmin <= 1 {
			limit = 1
		}
	}
	n := 0
	for _, d := range dist {
		if d <= limit {
			n++
		}
	}
	k := 0
	if n > 1 {
		k = c.rng.Intn(n)
	}
	for i, d := range dist {
		if d > limit {
			continue
		}
		if k == 0 {
			return cand[i], true
		}
		k--
	}
	panic("routing: live gateway selection fell through")
}

// findTransit finds the deterministic two-hop detour gs -> gt -> gd for a
// group pair with no live direct gateway: the first transit group (ascending
// order) offering a live gateway chain cur -> gw1 -> gw1.Peer -> gw2 ->
// gw2.Peer -> dst.
func (c *Chooser) findTransit(cur topology.RouterID, gs, gd int, dst topology.RouterID) (gw1, gw2 topology.Gateway, ok bool) {
	for gt := 0; gt < c.numGroups; gt++ {
		if gt == gs || gt == gd {
			continue
		}
		for _, g1 := range c.topo.Gateways(gs, gt) {
			if !c.health.GlobalLinkUp(g1.Router, g1.Port) || c.liveLocalDist(cur, g1.Router) < 0 {
				continue
			}
			for _, g2 := range c.topo.Gateways(gt, gd) {
				if !c.health.GlobalLinkUp(g2.Router, g2.Port) {
					continue
				}
				if c.liveLocalDist(g1.Peer, g2.Router) < 0 || c.liveLocalDist(g2.Peer, dst) < 0 {
					continue
				}
				return g1, g2, true
			}
		}
	}
	return topology.Gateway{}, topology.Gateway{}, false
}
