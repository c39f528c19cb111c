package topology

import (
	"fmt"

	"dragonfly/internal/par"
)

// Global-link wiring. Each port-owning router (from portBase on in its
// group) owns portsPerRouter global ports. Within a group, ports are
// enumerated linearly: port p of the i-th port-owning router has index
// k = i*P + p. Port k is assigned to the (k mod (Groups-1))-th other group,
// and is the (k div (Groups-1))-th parallel "slot" toward that group. The
// link in slot s from group a to group b pairs with the link in slot s from
// b to a, forming one bidirectional global link — the canonical round-robin
// ("relative-group") arrangement used by dragonfly simulators.
//
// When Groups-1 does not divide the ports of a group, opposite directions of
// a pair can own different slot counts; the surplus ports stay unwired
// (globalPeer = -1). All preset machines divide evenly.

// wire records the family's local fabric and runs the round-robin pairing
// described above, filling the dense peer/peerPort tables (indexed
// r*portsPerRouter+p, -1 when unwired) and the per-group-pair gateway lists.
//
// The wiring is sharded across the par worker pool: slot enumeration by
// group, pair wiring by source group. Every group pair (a, b) with a < b is
// wired exclusively by the worker owning a, and a pair's writes — its own
// port slots in peer/peerPort and the two gateways[a][b]/gateways[b][a]
// cells — touch no other pair's, so the wired machine is byte-identical at
// every worker count.
func (l *layout) wire(local localDistance) {
	l.local = local
	groups, rpg, ports, portsPerGroup := l.groups, l.routersPerGroup, l.portsPerRouter, l.portsPerGroup()
	peer := make([]RouterID, l.NumRouters()*ports)
	peerPort := make([]int32, l.NumRouters()*ports)
	for i := range peer {
		peer[i] = -1
		peerPort[i] = -1
	}
	gateways := make([][][]Gateway, groups)
	for a := range gateways {
		gateways[a] = make([][]Gateway, groups)
	}
	l.globalPeer, l.globalPeerPort, l.gateways = peer, peerPort, gateways
	if groups < 2 || ports == 0 {
		return
	}

	others := groups - 1
	// slotPort[a][b][s] = linear port index k in group a of slot s toward b.
	// Slot counts per target are known up front (ceil/floor of the
	// round-robin), so the inner lists are pre-sized exactly.
	slotPort := make([][][]int, groups)
	par.ForChunks(groups, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			slotPort[a] = make([][]int, groups)
			whole := portsPerGroup / others
			for b := 0; b < groups; b++ {
				if b == a {
					continue
				}
				ti := b
				if ti > a {
					ti--
				}
				n := whole
				if ti < portsPerGroup%others {
					n++
				}
				slotPort[a][b] = make([]int, 0, n)
			}
			for k := 0; k < portsPerGroup; k++ {
				ti := k % others // target index in a's skip list
				b := ti
				if b >= a {
					b++
				}
				slotPort[a][b] = append(slotPort[a][b], k)
			}
		}
	})
	par.ForChunks(groups, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			for b := a + 1; b < groups; b++ {
				n := len(slotPort[a][b])
				if m := len(slotPort[b][a]); m < n {
					n = m
				}
				if n == 0 {
					continue
				}
				ab := make([]Gateway, 0, n)
				ba := make([]Gateway, 0, n)
				for s := 0; s < n; s++ {
					ka, kb := slotPort[a][b][s], slotPort[b][a][s]
					ra := RouterID(a*rpg + l.portBase + ka/ports)
					rb := RouterID(b*rpg + l.portBase + kb/ports)
					pa, pb := ka%ports, kb%ports
					peer[int(ra)*ports+pa] = rb
					peerPort[int(ra)*ports+pa] = int32(pb)
					peer[int(rb)*ports+pb] = ra
					peerPort[int(rb)*ports+pb] = int32(pa)
					ab = append(ab, Gateway{Router: ra, Port: pa, Peer: rb})
					ba = append(ba, Gateway{Router: rb, Port: pb, Peer: ra})
				}
				gateways[a][b] = ab
				gateways[b][a] = ba
			}
		}
	})
	l.conns = l.wiredConns()
}

// GlobalPeer returns the router and port at the far end of router r's global
// port p; ok is false when the port is unwired.
func (l *layout) GlobalPeer(r RouterID, p int) (peer RouterID, peerPort int, ok bool) {
	g := l.portsPerRouter
	if p < 0 || p >= g {
		panic(fmt.Sprintf("topology: global port %d out of range [0,%d)", p, g))
	}
	idx := int(r)*g + p
	if l.globalPeer[idx] < 0 {
		return 0, 0, false
	}
	return l.globalPeer[idx], int(l.globalPeerPort[idx]), true
}

// Gateways returns the (router, port, peer) triples of group src whose
// global links land in group dst. The returned slice is shared; callers
// must not mutate it.
func (l *layout) Gateways(src, dst int) []Gateway {
	return l.gateways[src][dst]
}

// GlobalConnected reports whether routers a and b are joined by a wired
// global link.
func (l *layout) GlobalConnected(a, b RouterID) bool {
	g := l.portsPerRouter
	for p := 0; p < g; p++ {
		if l.globalPeer[int(a)*g+p] == b {
			return true
		}
	}
	return false
}

// Gateway is a router (with the specific global port) that connects its
// group to some destination group. Peer is the router at the far end of the
// link, precomputed so route construction never needs a per-port lookup.
type Gateway struct {
	Router RouterID
	Port   int
	Peer   RouterID
}

// GlobalConn is one bidirectional global link, reported once with A < B.
type GlobalConn struct {
	A     RouterID
	APort int
	B     RouterID
	BPort int
}

// GlobalConns enumerates every wired global link exactly once, by its
// lower-numbered router and port. The returned slice is shared (resolved
// once at construction); callers must not mutate it.
func (l *layout) GlobalConns() []GlobalConn { return l.conns }

// wiredConns lists the wired global links in GlobalConns order, into a
// slice of exactly their count.
func (l *layout) wiredConns() []GlobalConn {
	g := l.portsPerRouter
	// lower reports whether port k = r*g+p is the link's listed end.
	lower := func(r, p int) bool {
		peer := l.globalPeer[r*g+p]
		return peer >= 0 && (RouterID(r) < peer || RouterID(r) == peer && p <= int(l.globalPeerPort[r*g+p]))
	}
	n := 0
	for k := range l.globalPeer {
		if lower(k/g, k%g) {
			n++
		}
	}
	out := make([]GlobalConn, 0, n)
	for k, peer := range l.globalPeer {
		if r, p := k/g, k%g; lower(r, p) {
			out = append(out, GlobalConn{A: RouterID(r), APort: p, B: peer, BPort: int(l.globalPeerPort[k])})
		}
	}
	return out
}

// perPairOrZero is the global links per group pair that Describe reports.
func perPairOrZero(wired, groups int) int {
	pairs := groups * (groups - 1) / 2
	if pairs == 0 {
		return 0
	}
	return wired / pairs
}
