package routing

// Fault-aware routing: the degraded-fabric state of the chooser, installed
// with Options.Health. Only the chooser knows whether the fabric is
// degraded, and it routes both fabrics from one set of tables: the route
// builders in routing.go (MinimalPath, ValiantPath) walk the intra-group
// nextHop rows and pick gateways over the dist rows, which buildGroups
// fills over the live local links — all of them when healthy — at
// construction and RebuildHealth refills after every dynamic fault event.
// Policies make one decision over primitives that report infeasibility.
//
// Degraded-mode contract:
//
//   - Intra-group segments take shortest live paths: the machine's
//     canonical LocalNextHop wherever that hop is live and one hop closer
//     to the destination, and the parent in a BFS tree over the live local
//     links elsewhere. Dimension order survives wherever it can; where it
//     died, a route may exceed the healthy 2-hop bound.
//   - Inter-group routes pick among the live direct gateways by the
//     configured gateway policy over live distances (dead global ports are
//     never candidates — adaptive routing's "infinitely congested" ports
//     fall out by construction), cached per (router, destination group)
//     as on a healthy fabric. While some group is split, a gateway's far
//     end must also reach the destination router, so the cache is
//     bypassed. When a group pair has no live direct gateway, minimal
//     routing falls back to a deterministic two-global-hop detour through
//     the first transit group that works; the VC classes of that detour
//     are exactly a Valiant path's, so the deadlock budget
//     (NumLocalVC/NumGlobalVC) still holds.
//   - Valiant candidates are only used when both segments route direct (a
//     segment needing its own detour would exceed the global-VC budget);
//     infeasible candidates are skipped, never substituted.
//   - A pair with no live route at all fails with ErrUnreachable from
//     TryRoute — a typed error, not a hang or a panic.
//
// Determinism: BFS order is the machine's LocalNeighbors order, transit
// search is first-match in group order, and gateway picks draw from the
// same named stream exactly as on a healthy fabric — a fault set plus seed
// always yields the same routes, and a fault set that fails nothing yields
// the healthy routes.

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

// RebuildHealth refills the intra-group tables over the live local links
// of the current Health view and empties the gateway cache. The core layer
// calls it after every dynamic fault event; with a nil Health it is a
// no-op. It builds on the calling goroutine and allocates nothing. Cost is
// O(routers x routersPerGroup x local degree), far off the per-packet path.
func (c *Chooser) RebuildHealth() {
	if c.health == nil {
		return
	}
	c.split = c.buildGroups(0, c.numGroups)
	c.resetGatewayCache()
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
			if !c.globalUp(g1) || c.localDist(cur, g1.Router) < 0 {
				continue
			}
			for _, g2 := range c.topo.Gateways(gt, gd) {
				if !c.globalUp(g2) {
					continue
				}
				if c.localDist(g1.Peer, g2.Router) < 0 || c.localDist(g2.Peer, dst) < 0 {
					continue
				}
				return g1, g2, true
			}
		}
	}
	return topology.Gateway{}, topology.Gateway{}, false
}
