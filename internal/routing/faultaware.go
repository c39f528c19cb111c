package routing

// Fault-aware routing: the degraded-fabric code path the chooser switches to
// when Options.Health is set. It is deliberately separate from the healthy
// builders in routing.go — the healthy hot path keeps its canonical next-hop
// walk and zero-allocation profile untouched (guarded by the bench-diff
// gate), while this path trades a little speed for routing around dead
// equipment. Its BFS tables share the healthy nextHop rows' (router, local
// destination) layout.
//
// Degraded-mode contract:
//
//   - Intra-group segments follow per-destination BFS trees over the live
//     local links (rebuilt by RebuildHealth), not the canonical DOR tables:
//     a live shortest path is taken even where the canonical route died, so
//     routes may be longer than the healthy 2-hop bound and may differ from
//     DOR where DOR would have survived.
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
// Health view: per-destination BFS next hops and live distances over the
// live local links of every group. The core layer calls it after every
// dynamic fault event; with a nil Health it is a no-op. Cost is
// O(routers x routersPerGroup), far off the per-packet path.
func (c *Chooser) RebuildHealth() {
	if c.health == nil {
		return
	}
	rpg := c.routersPerGroup
	if c.liveNextHop == nil {
		// One slot per (router, local dst), like the healthy nextHop rows.
		n := c.numRouters * rpg
		c.liveNextHop = make([]topology.RouterID, n)
		c.liveDist = make([]int32, n)
		c.bfsQueue = make([]topology.RouterID, 0, rpg)
	}
	for i := range c.liveNextHop {
		c.liveNextHop[i] = noRouter
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
					c.liveNextHop[int(v)*rpg+j] = u
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

// faultRoute is TryRoute's degraded-mode body.
func (c *Chooser) faultRoute(rs, rd topology.RouterID) (Path, error) {
	if !c.health.RouterUp(rs) || !c.health.RouterUp(rd) {
		return Path{}, &UnreachableError{Src: rs, Dst: rd}
	}
	if rs == rd {
		return Path{}, nil
	}
	return c.policy.FaultRoute(rs, rd)
}

// appendLocalLive walks the BFS tree from cur to dst (same group) on the
// given local VC class; reports false when the pair is partitioned.
func (c *Chooser) appendLocalLive(hops []Hop, cur, dst topology.RouterID, class uint8) ([]Hop, bool) {
	base := int(c.groupOf[cur]) * c.routersPerGroup
	for cur != dst {
		next := c.liveNextHop[int(cur)*c.routersPerGroup+int(dst)-base]
		if next == noRouter {
			return hops, false
		}
		hops = append(hops, Hop{From: cur, To: next, Kind: Local, VC: class})
		cur = next
	}
	return hops, true
}

// appendMinimalFault appends the degraded-mode minimal route cur -> dst.
// allowTransit permits the two-global-hop detour when the group pair has no
// live direct gateway; Valiant segments pass false to stay inside the VC
// budget. Reports false when no live route exists under those constraints.
func (c *Chooser) appendMinimalFault(hops []Hop, cur, dst topology.RouterID, st *segmentState, allowTransit bool) ([]Hop, bool) {
	gs := int(c.groupOf[cur])
	gd := int(c.groupOf[dst])
	if gs == gd {
		return c.appendLocalLive(hops, cur, dst, st.localClass())
	}
	if gw, ok := c.pickLiveGateway(cur, gs, gd, dst); ok {
		hops, ok = c.appendLocalLive(hops, cur, gw.Router, st.localClass())
		if !ok {
			return hops, false
		}
		hops = append(hops, Hop{From: gw.Router, To: gw.Peer, Kind: Global, VC: st.globalClass()})
		st.globalHops++
		return c.appendLocalLive(hops, gw.Peer, dst, st.localClass())
	}
	if !allowTransit || st.globalHops != 0 {
		return hops, false
	}
	gw1, gw2, ok := c.findTransit(cur, gs, gd, dst)
	if !ok {
		return hops, false
	}
	// The detour's VC classes are exactly a Valiant path's: global classes
	// 0 then 1, local classes 0 / 1 / 2 across the three groups.
	hops, ok = c.appendLocalLive(hops, cur, gw1.Router, st.localClass())
	if !ok {
		return hops, false
	}
	hops = append(hops, Hop{From: gw1.Router, To: gw1.Peer, Kind: Global, VC: st.globalClass()})
	st.globalHops++
	hops, ok = c.appendLocalLive(hops, gw1.Peer, gw2.Router, st.localClass())
	if !ok {
		return hops, false
	}
	hops = append(hops, Hop{From: gw2.Router, To: gw2.Peer, Kind: Global, VC: st.globalClass()})
	st.globalHops++
	return c.appendLocalLive(hops, gw2.Peer, dst, st.localClass())
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

// FaultMinimalPath is MinimalPath's degraded-mode twin: the live minimal
// route (with the two-global-hop transit detour when the group pair has no
// live direct gateway), or a typed error when the pair is partitioned.
func (c *Chooser) FaultMinimalPath(rs, rd topology.RouterID) (Path, error) {
	var st segmentState
	hops, ok := c.appendMinimalFault(c.getHops(), rs, rd, &st, true)
	if !ok {
		c.putHops(hops)
		return Path{}, &UnreachableError{Src: rs, Dst: rd}
	}
	return Path{Hops: hops, arena: c.useArena}, nil
}

// FaultValiantPath builds a non-minimal candidate on the faulted fabric. A
// candidate whose intermediate is dead or whose segments cannot route direct
// is infeasible: it reports false and the caller simply fields fewer
// candidates.
func (c *Chooser) FaultValiantPath(rs, rd topology.RouterID) (Path, bool) {
	mid := c.valiant[c.rng.Intn(len(c.valiant))]
	if mid == rs || mid == rd {
		p, err := c.FaultMinimalPath(rs, rd)
		return p, err == nil
	}
	if !c.health.RouterUp(mid) {
		return Path{}, false
	}
	var st segmentState
	hops, ok := c.appendMinimalFault(c.getHops(), rs, mid, &st, false)
	if !ok {
		c.putHops(hops)
		return Path{}, false
	}
	st.midsPassed++
	hops, ok = c.appendMinimalFault(hops, mid, rd, &st, false)
	if !ok {
		c.putHops(hops)
		return Path{}, false
	}
	return Path{Hops: hops, arena: c.useArena}, true
}
