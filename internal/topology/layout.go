package topology

import "fmt"

// layout is the group-major machine layout both families share; they differ
// only in how the routers of a group are wired to each other, which each
// supplies itself (LocalNeighbors, LocalConnected, LocalDistance,
// LocalNextHop). Dragonfly and DragonflyPlus embed it, so every other
// Interconnect method has this one implementation.
//
// Group g owns routers [g*routersPerGroup, (g+1)*routersPerGroup). The first
// holders routers of a group hold nodesPerRouter nodes each (every router on
// the XC40 grid, the leaves on Dragonfly+), numbered consecutively in router
// order, so RouterOfNode is monotone and contiguous node ranges are
// physically adjacent. A chassis is a consecutive run of chassisSize
// node-holding routers and a cabinet is chassisPerCabinet chassis of one
// group; a trailing partial unit counts as one. The node-holding routers are
// the Valiant intermediates, which keeps every Dragonfly+ route segment
// leaf-anchored. Global ports live on routers portBase.. of each group,
// portsPerRouter each, wired round-robin (wiring.go).
type layout struct {
	groups            int
	routersPerGroup   int
	holders           int
	nodesPerRouter    int
	chassisSize       int
	chassisPerCabinet int
	portBase          int
	portsPerRouter    int

	// globalPeer[r*portsPerRouter+p] is the router on the other end of
	// router r's global port p, or -1 if the port is unwired (non-divisible
	// configurations, routers below portBase).
	globalPeer []RouterID
	// globalPeerPort[r*portsPerRouter+p] is the peer's port index for the
	// same link.
	globalPeerPort []int32
	// gateways[a][b] lists, for source group a and destination group b, the
	// (router, port) pairs in group a whose global link lands in group b.
	gateways [][][]Gateway
	// conns lists every wired global link once, in GlobalConns order.
	conns []GlobalConn

	// local is the family's own local fabric, for MinimalRouterHops.
	local localDistance
}

// localDistance is the one local-fabric query the layout needs.
type localDistance interface {
	LocalDistance(a, b RouterID) int
}

// portsPerGroup counts the global ports of one group.
func (l *layout) portsPerGroup() int { return (l.routersPerGroup - l.portBase) * l.portsPerRouter }

// validate rejects a layout whose global ports cannot reach every other
// group: round-robin wiring joins every group pair exactly when a group has
// at least Groups-1 ports.
func (l layout) validate() error {
	if ports := l.portsPerGroup(); ports < l.groups-1 {
		return fmt.Errorf("topology: %d global ports per group cannot reach the other %d groups", ports, l.groups-1)
	}
	return nil
}

// NumGroups returns the group count.
func (l *layout) NumGroups() int { return l.groups }

// NumRouters returns the machine-wide router count.
func (l *layout) NumRouters() int { return l.groups * l.routersPerGroup }

// NumNodes returns the machine-wide compute-node count.
func (l *layout) NumNodes() int { return l.groups * l.holders * l.nodesPerRouter }

// NodesPerRouter returns the node count of a node-holding router.
func (l *layout) NodesPerRouter() int { return l.nodesPerRouter }

// RoutersPerGroup returns the per-group router count.
func (l *layout) RoutersPerGroup() int { return l.routersPerGroup }

// GroupOfRouter returns the group containing a router.
func (l *layout) GroupOfRouter(r RouterID) int { return int(r) / l.routersPerGroup }

// holds reports whether r holds nodes.
func (l *layout) holds(r RouterID) bool { return int(r)%l.routersPerGroup < l.holders }

// holderIndex returns r's machine-wide ordinal among node-holding routers;
// r must hold nodes.
func (l *layout) holderIndex(r RouterID) int {
	return int(r)/l.routersPerGroup*l.holders + int(r)%l.routersPerGroup
}

// holderRouter returns the node-holding router of machine-wide ordinal i.
func (l *layout) holderRouter(i int) RouterID {
	return RouterID(i/l.holders*l.routersPerGroup + i%l.holders)
}

// RouterOfNode returns the router a node attaches to.
func (l *layout) RouterOfNode(n NodeID) RouterID {
	return l.holderRouter(int(n) / l.nodesPerRouter)
}

// NodeSlot returns the node's terminal-port slot on its router.
func (l *layout) NodeSlot(n NodeID) int { return int(n) % l.nodesPerRouter }

// NodeAt returns the node in a given slot of a node-holding router.
func (l *layout) NodeAt(r RouterID, slot int) NodeID {
	return NodeID(l.holderIndex(r)*l.nodesPerRouter + slot)
}

// GroupOfNode returns the group containing a node.
func (l *layout) GroupOfNode(n NodeID) int { return l.GroupOfRouter(l.RouterOfNode(n)) }

// NodesOfRouter returns the nodes attached to a router, in slot order; a
// router that holds no nodes returns nil.
func (l *layout) NodesOfRouter(r RouterID) []NodeID {
	if !l.holds(r) {
		return nil
	}
	out := make([]NodeID, l.nodesPerRouter)
	for i := range out {
		out[i] = l.NodeAt(r, i)
	}
	return out
}

// --- chassis / cabinet structure -----------------------------------------

// chassisPerGroup counts the chassis of one group.
func (l *layout) chassisPerGroup() int {
	return (l.holders + l.chassisSize - 1) / l.chassisSize
}

// CabinetsPerGroup returns how many cabinets one group spans.
func (l *layout) CabinetsPerGroup() int {
	return (l.chassisPerGroup() + l.chassisPerCabinet - 1) / l.chassisPerCabinet
}

// ChassisCount returns the machine-wide chassis count.
func (l *layout) ChassisCount() int { return l.groups * l.chassisPerGroup() }

// CabinetCount returns the machine-wide cabinet count.
func (l *layout) CabinetCount() int { return l.groups * l.CabinetsPerGroup() }

// ChassisOfRouter returns the chassis index of a node-holding router.
func (l *layout) ChassisOfRouter(r RouterID) int {
	return l.GroupOfRouter(r)*l.chassisPerGroup() + int(r)%l.routersPerGroup/l.chassisSize
}

// CabinetOfRouter returns the cabinet index of a node-holding router.
func (l *layout) CabinetOfRouter(r RouterID) int {
	return l.GroupOfRouter(r)*l.CabinetsPerGroup() + int(r)%l.routersPerGroup/(l.chassisSize*l.chassisPerCabinet)
}

// RoutersInChassis returns the routers of one chassis in router order.
func (l *layout) RoutersInChassis(chassis int) []RouterID {
	per := l.chassisPerGroup()
	return l.holderRun(chassis/per, chassis%per*l.chassisSize, l.chassisSize)
}

// RoutersInCabinet returns the routers of one cabinet in router order.
func (l *layout) RoutersInCabinet(cabinet int) []RouterID {
	per, size := l.CabinetsPerGroup(), l.chassisSize*l.chassisPerCabinet
	return l.holderRun(cabinet/per, cabinet%per*size, size)
}

// holderRun returns up to n node-holding routers of group g, starting at
// the group's first-th; the run stops at the group's last holder.
func (l *layout) holderRun(g, first, n int) []RouterID {
	if first+n > l.holders {
		n = l.holders - first
	}
	out := make([]RouterID, n)
	for i := range out {
		out[i] = RouterID(g*l.routersPerGroup + first + i)
	}
	return out
}

// --- Valiant surface --------------------------------------------------------

// NumValiantRouters returns how many routers are eligible as Valiant
// intermediates: the node-holding routers. On Dragonfly+ these are the
// leaves, which keeps every intra-group segment of a Valiant route up-down
// and the local VC class within routing.NumLocalVC (see DESIGN.md).
func (l *layout) NumValiantRouters() int { return l.groups * l.holders }

// ValiantRouter returns the i-th eligible Valiant intermediate.
func (l *layout) ValiantRouter(i int) RouterID { return l.holderRouter(i) }

// MinimalRouterHops returns the number of routers a minimally routed packet
// traverses from src node to dst node — the quantity behind the paper's
// "average hops" metric (Fig. 4a). Delivery through a single shared router
// counts 1; an inter-group path counts its two local segments plus the
// gateway and its peer (at most 6 on the XC40 grid, 4 on Dragonfly+).
func (l *layout) MinimalRouterHops(src, dst NodeID) int {
	rs, rd := l.RouterOfNode(src), l.RouterOfNode(dst)
	gs, gd := l.GroupOfRouter(rs), l.GroupOfRouter(rd)
	if gs == gd {
		return 1 + l.local.LocalDistance(rs, rd)
	}
	best := -1
	for _, gw := range l.Gateways(gs, gd) {
		h := 1 + l.local.LocalDistance(rs, gw.Router) + 1 + l.local.LocalDistance(gw.Peer, rd)
		if best < 0 || h < best {
			best = h
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("topology: groups %d and %d are not connected", gs, gd))
	}
	return best
}
