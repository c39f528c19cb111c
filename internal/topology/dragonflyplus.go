package topology

import (
	"errors"
	"fmt"
)

// Dragonfly+ (Shpiner et al.; studied for interference by Kang et al.,
// "Modeling and Analysis of Application Interference on Dragonfly+") replaces
// the XC40's row/column router grid with two-layer groups: leaf routers hold
// the compute nodes and connect to every spine router of their group
// (complete bipartite local wiring); spine routers hold the global ports.
// Every minimal intra-group traversal is therefore up-down — at most
// leaf -> spine -> leaf — which is what keeps the virtual-channel scheme of
// package routing deadlock-free on this machine (see DESIGN.md).
//
// Runs on this topology are extensions beyond the source paper, which studies
// the XC40 machine only.

// PlusConfig describes a Dragonfly+ machine. The zero value is invalid; use
// Plus()/PlusMini() or fill the fields for a custom machine.
type PlusConfig struct {
	Groups              int // number of groups
	Leaves              int // leaf routers per group (nodes attach here)
	Spines              int // spine routers per group (global ports live here)
	NodesPerLeaf        int // compute nodes attached to each leaf router
	GlobalPortsPerSpine int // global (inter-group) link ports per spine
	LeavesPerChassis    int // leaf routers grouped into one chassis
	ChassisPerCabinet   int // chassis grouped into one cabinet
}

// Plus returns a 1296-node Dragonfly+ machine proportioned like the systems
// in Kang et al.: 9 groups x (24 leaves + 12 spines) x 6 nodes per leaf,
// with 3 parallel global links per group pair. It is an illustrative
// configuration for extension studies, not a model of a specific machine.
func Plus() PlusConfig {
	return PlusConfig{
		Groups:              9,
		Leaves:              24,
		Spines:              12,
		NodesPerLeaf:        6,
		GlobalPortsPerSpine: 2,
		LeavesPerChassis:    4,
		ChassisPerCabinet:   3,
	}
}

// PlusMini returns a small Dragonfly+ machine for tests, benchmarks, and
// quick-scale sweeps: 5 groups x (8 leaves + 4 spines) x 4 nodes = 160
// nodes — the same node count as the quick-scale XC40 machine, so the same
// shrunk application traces fit both.
func PlusMini() PlusConfig {
	return PlusConfig{
		Groups:              5,
		Leaves:              8,
		Spines:              4,
		NodesPerLeaf:        4,
		GlobalPortsPerSpine: 3,
		LeavesPerChassis:    2,
		ChassisPerCabinet:   2,
	}
}

// Validate reports whether the configuration describes a buildable machine.
func (c PlusConfig) Validate() error {
	switch {
	case c.Groups < 1:
		return errors.New("topology: Groups must be >= 1")
	case c.Leaves < 1 || c.Spines < 1:
		return errors.New("topology: Leaves and Spines must be >= 1")
	case c.NodesPerLeaf < 1:
		return errors.New("topology: NodesPerLeaf must be >= 1")
	case c.LeavesPerChassis < 1:
		return errors.New("topology: LeavesPerChassis must be >= 1")
	case c.ChassisPerCabinet < 1:
		return errors.New("topology: ChassisPerCabinet must be >= 1")
	case c.Groups > 1 && c.GlobalPortsPerSpine < 1:
		return errors.New("topology: multi-group machine needs GlobalPortsPerSpine >= 1")
	case c.GlobalPortsPerSpine < 0:
		return errors.New("topology: GlobalPortsPerSpine must be >= 0")
	}
	return nil
}

// RoutersPerGroup returns the router count of one group (leaves + spines).
func (c PlusConfig) RoutersPerGroup() int { return c.Leaves + c.Spines }

// Build makes PlusConfig a Machine.
func (c PlusConfig) Build() (Interconnect, error) { return NewPlus(c) }

// Label returns a compact, deterministic description of the machine shape.
func (c PlusConfig) Label() string {
	return fmt.Sprintf("dragonfly+:g%d-l%d-s%d-n%d", c.Groups, c.Leaves, c.Spines, c.NodesPerLeaf)
}

// CanonicalSpec renders every shape field into one deterministic string —
// the machine's identity for content-addressed result caching (see
// Config.CanonicalSpec).
func (c PlusConfig) CanonicalSpec() string {
	return fmt.Sprintf("dragonfly+{groups=%d,leaves=%d,spines=%d,nodes_per_leaf=%d,global_ports_per_spine=%d,leaves_per_chassis=%d,chassis_per_cabinet=%d}",
		c.Groups, c.Leaves, c.Spines, c.NodesPerLeaf, c.GlobalPortsPerSpine, c.LeavesPerChassis, c.ChassisPerCabinet)
}

// DragonflyPlus is an immutable, fully wired Dragonfly+ machine. Routers are
// numbered group-major; within a group the leaves come first (0..Leaves-1),
// then the spines. Nodes attach to leaves only, numbered consecutively per
// leaf in leaf order, so RouterOfNode stays monotone.
type DragonflyPlus struct {
	cfg PlusConfig

	routersPerGroup int
	numRouters      int
	numNodes        int

	globalPeer     []RouterID
	globalPeerPort []int32
	gateways       [][][]Gateway

	// Shared local-neighbor lists, resolved once at construction: every leaf
	// of group g has exactly the spines of g as neighbors and every spine the
	// leaves, so one slice per (group, side) serves all its routers —
	// LocalNeighbors is called per router during fabric construction and
	// health rebuilds, and per-call allocation there was
	// the dominant share of the DF+ fabric-construction allocation gap.
	spineNbrs [][]RouterID // indexed by group: the spines of that group
	leafNbrs  [][]RouterID // indexed by group: the leaves of that group
}

// NewPlus builds and wires a Dragonfly+ machine.
func NewPlus(cfg PlusConfig) (*DragonflyPlus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &DragonflyPlus{
		cfg:             cfg,
		routersPerGroup: cfg.RoutersPerGroup(),
	}
	t.numRouters = cfg.Groups * t.routersPerGroup
	t.numNodes = cfg.Groups * cfg.Leaves * cfg.NodesPerLeaf
	g := cfg.GlobalPortsPerSpine
	t.globalPeer, t.globalPeerPort, t.gateways = roundRobinWire(
		cfg.Groups, t.numRouters, g, cfg.Spines*g,
		func(group, k int) RouterID {
			return RouterID(group*t.routersPerGroup + cfg.Leaves + k/g)
		},
	)
	t.spineNbrs = make([][]RouterID, cfg.Groups)
	t.leafNbrs = make([][]RouterID, cfg.Groups)
	spineFlat := make([]RouterID, cfg.Groups*cfg.Spines)
	leafFlat := make([]RouterID, cfg.Groups*cfg.Leaves)
	for grp := 0; grp < cfg.Groups; grp++ {
		base := grp * t.routersPerGroup
		s := spineFlat[grp*cfg.Spines : (grp+1)*cfg.Spines]
		for i := range s {
			s[i] = RouterID(base + cfg.Leaves + i)
		}
		t.spineNbrs[grp] = s
		l := leafFlat[grp*cfg.Leaves : (grp+1)*cfg.Leaves]
		for i := range l {
			l[i] = RouterID(base + i)
		}
		t.leafNbrs[grp] = l
	}
	return t, nil
}

// MustNewPlus is NewPlus for known-good configurations (presets, tests).
func MustNewPlus(cfg PlusConfig) *DragonflyPlus {
	t, err := NewPlus(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the machine's configuration.
func (t *DragonflyPlus) Config() PlusConfig { return t.cfg }

// Name identifies the topology family.
func (t *DragonflyPlus) Name() string { return "dragonfly+" }

// NumGroups returns the group count.
func (t *DragonflyPlus) NumGroups() int { return t.cfg.Groups }

// NumRouters returns the machine-wide router count (leaves and spines).
func (t *DragonflyPlus) NumRouters() int { return t.numRouters }

// NumNodes returns the machine-wide compute-node count.
func (t *DragonflyPlus) NumNodes() int { return t.numNodes }

// NodesPerRouter returns the node count of a leaf router; spines hold none.
func (t *DragonflyPlus) NodesPerRouter() int { return t.cfg.NodesPerLeaf }

// IsLeaf reports whether r is a leaf (node-holding) router.
func (t *DragonflyPlus) IsLeaf(r RouterID) bool {
	return int(r)%t.routersPerGroup < t.cfg.Leaves
}

// leafIndex returns r's machine-wide leaf ordinal; r must be a leaf.
func (t *DragonflyPlus) leafIndex(r RouterID) int {
	g := int(r) / t.routersPerGroup
	l := int(r) % t.routersPerGroup
	return g*t.cfg.Leaves + l
}

// leafRouter returns the router of the machine-wide leaf ordinal i.
func (t *DragonflyPlus) leafRouter(i int) RouterID {
	return RouterID(i/t.cfg.Leaves*t.routersPerGroup + i%t.cfg.Leaves)
}

// RouterOfNode returns the leaf router a node attaches to.
func (t *DragonflyPlus) RouterOfNode(n NodeID) RouterID {
	return t.leafRouter(int(n) / t.cfg.NodesPerLeaf)
}

// NodeSlot returns the node's terminal-port slot on its leaf.
func (t *DragonflyPlus) NodeSlot(n NodeID) int {
	return int(n) % t.cfg.NodesPerLeaf
}

// NodeAt returns the node in a given slot of a leaf router.
func (t *DragonflyPlus) NodeAt(r RouterID, slot int) NodeID {
	return NodeID(t.leafIndex(r)*t.cfg.NodesPerLeaf + slot)
}

// GroupOfRouter returns the group containing a router.
func (t *DragonflyPlus) GroupOfRouter(r RouterID) int {
	return int(r) / t.routersPerGroup
}

// GroupOfNode returns the group containing a node.
func (t *DragonflyPlus) GroupOfNode(n NodeID) int {
	return t.GroupOfRouter(t.RouterOfNode(n))
}

// NodesOfRouter returns the nodes attached to a router, in slot order;
// spines return nil.
func (t *DragonflyPlus) NodesOfRouter(r RouterID) []NodeID {
	if !t.IsLeaf(r) {
		return nil
	}
	out := make([]NodeID, t.cfg.NodesPerLeaf)
	for i := range out {
		out[i] = t.NodeAt(r, i)
	}
	return out
}

// --- chassis / cabinet structure -----------------------------------------

// chassisPerGroup counts the chassis of one group; a trailing partial
// chassis counts as one. Only leaves belong to chassis — spines hold no
// nodes, so placement units never need them.
func (t *DragonflyPlus) chassisPerGroup() int {
	return (t.cfg.Leaves + t.cfg.LeavesPerChassis - 1) / t.cfg.LeavesPerChassis
}

// ChassisCount returns the machine-wide chassis count.
func (t *DragonflyPlus) ChassisCount() int { return t.cfg.Groups * t.chassisPerGroup() }

// RoutersInChassis returns the leaf routers of one chassis in leaf order.
func (t *DragonflyPlus) RoutersInChassis(chassis int) []RouterID {
	perGroup := t.chassisPerGroup()
	group := chassis / perGroup
	first := (chassis % perGroup) * t.cfg.LeavesPerChassis
	last := first + t.cfg.LeavesPerChassis
	if last > t.cfg.Leaves {
		last = t.cfg.Leaves
	}
	out := make([]RouterID, 0, last-first)
	for l := first; l < last; l++ {
		out = append(out, RouterID(group*t.routersPerGroup+l))
	}
	return out
}

// CabinetsPerGroup returns how many cabinets one group spans.
func (t *DragonflyPlus) CabinetsPerGroup() int {
	return (t.chassisPerGroup() + t.cfg.ChassisPerCabinet - 1) / t.cfg.ChassisPerCabinet
}

// CabinetCount returns the machine-wide cabinet count.
func (t *DragonflyPlus) CabinetCount() int { return t.cfg.Groups * t.CabinetsPerGroup() }

// RoutersInCabinet returns the leaf routers of one cabinet in chassis order.
func (t *DragonflyPlus) RoutersInCabinet(cabinet int) []RouterID {
	perGroup := t.CabinetsPerGroup()
	group := cabinet / perGroup
	firstChassis := group*t.chassisPerGroup() + (cabinet%perGroup)*t.cfg.ChassisPerCabinet
	lastChassis := firstChassis + t.cfg.ChassisPerCabinet
	if max := (group + 1) * t.chassisPerGroup(); lastChassis > max {
		lastChassis = max
	}
	var out []RouterID
	for ch := firstChassis; ch < lastChassis; ch++ {
		out = append(out, t.RoutersInChassis(ch)...)
	}
	return out
}

// --- local connectivity ----------------------------------------------------

// LocalConnected reports whether a and b are joined by a local link: the
// local wiring is complete bipartite, so exactly the leaf-spine pairs of one
// group are connected.
func (t *DragonflyPlus) LocalConnected(a, b RouterID) bool {
	if a == b || t.GroupOfRouter(a) != t.GroupOfRouter(b) {
		return false
	}
	return t.IsLeaf(a) != t.IsLeaf(b)
}

// LocalNeighbors returns the routers joined to r by local links: every spine
// of its group for a leaf, every leaf for a spine, in index order. The
// returned slice is shared (resolved once per group at construction); callers
// must not mutate it.
func (t *DragonflyPlus) LocalNeighbors(r RouterID) []RouterID {
	if t.IsLeaf(r) {
		return t.spineNbrs[t.GroupOfRouter(r)]
	}
	return t.leafNbrs[t.GroupOfRouter(r)]
}

// LocalDistance returns the intra-group hop distance between two routers of
// the same group: 0 (same router), 1 (leaf-spine) or 2 (leaf-leaf,
// spine-spine). It panics if the routers are in different groups.
func (t *DragonflyPlus) LocalDistance(a, b RouterID) int {
	if t.GroupOfRouter(a) != t.GroupOfRouter(b) {
		panic(fmt.Sprintf("topology: LocalDistance across groups: %d vs %d", a, b))
	}
	switch {
	case a == b:
		return 0
	case t.IsLeaf(a) != t.IsLeaf(b):
		return 1
	default:
		return 2
	}
}

// LocalNextHop returns the router after cur on the canonical minimal
// intra-group route from cur to dst. Adjacent (leaf-spine) pairs go direct;
// a leaf-leaf pair goes through the spine indexed by the sum of the two leaf
// ordinals mod Spines (deterministic, and spreading pairs over spines); the
// symmetric rule routes spine-spine pairs through a leaf, though routing
// never asks for that case — every route segment is anchored at a leaf, so
// the canonical routes actually traversed are direct hops and up-down
// leaf-spine-leaf walks only, and the per-class channel dependency graph
// stays acyclic (see DESIGN.md). It panics if the routers are in different
// groups.
func (t *DragonflyPlus) LocalNextHop(cur, dst RouterID) RouterID {
	if t.GroupOfRouter(cur) != t.GroupOfRouter(dst) {
		panic(fmt.Sprintf("topology: LocalNextHop across groups: %d vs %d", cur, dst))
	}
	if cur == dst || t.IsLeaf(cur) != t.IsLeaf(dst) {
		return dst
	}
	base := t.GroupOfRouter(cur) * t.routersPerGroup
	ci := int(cur) - base
	di := int(dst) - base
	if t.IsLeaf(cur) {
		return RouterID(base + t.cfg.Leaves + (ci+di)%t.cfg.Spines)
	}
	return RouterID(base + (ci+di)%t.cfg.Leaves)
}

// NumValiantRouters returns the eligible Valiant-intermediate count: leaves
// only. Restricting intermediates to leaves keeps every intra-group segment
// of a Valiant route up-down and bounds the local VC class at 3, within
// routing.NumLocalVC (see DESIGN.md).
func (t *DragonflyPlus) NumValiantRouters() int { return t.cfg.Groups * t.cfg.Leaves }

// ValiantRouter returns the i-th eligible Valiant intermediate.
func (t *DragonflyPlus) ValiantRouter(i int) RouterID { return t.leafRouter(i) }

// --- global connectivity ---------------------------------------------------

// GlobalPeer returns the router and port at the far end of router r's global
// port p; ok is false when the port is unwired (always, for leaves).
func (t *DragonflyPlus) GlobalPeer(r RouterID, p int) (peer RouterID, peerPort int, ok bool) {
	g := t.cfg.GlobalPortsPerSpine
	if p < 0 || p >= g {
		panic(fmt.Sprintf("topology: global port %d out of range [0,%d)", p, g))
	}
	idx := int(r)*g + p
	if t.globalPeer[idx] < 0 {
		return 0, 0, false
	}
	return t.globalPeer[idx], int(t.globalPeerPort[idx]), true
}

// Gateways returns the (spine, port, peer) triples of group src whose global
// links land in group dst. The returned slice is shared; callers must not
// mutate it.
func (t *DragonflyPlus) Gateways(src, dst int) []Gateway {
	return t.gateways[src][dst]
}

// GlobalConnected reports whether routers a and b are joined by a wired
// global link.
func (t *DragonflyPlus) GlobalConnected(a, b RouterID) bool {
	g := t.cfg.GlobalPortsPerSpine
	for p := 0; p < g; p++ {
		if t.globalPeer[int(a)*g+p] == b {
			return true
		}
	}
	return false
}

// GlobalConns enumerates every wired global link exactly once.
func (t *DragonflyPlus) GlobalConns() []GlobalConn {
	g := t.cfg.GlobalPortsPerSpine
	var out []GlobalConn
	for r := 0; r < t.numRouters; r++ {
		for p := 0; p < g; p++ {
			peer := t.globalPeer[r*g+p]
			if peer < 0 || RouterID(r) > peer ||
				(RouterID(r) == peer && p > int(t.globalPeerPort[r*g+p])) {
				continue
			}
			out = append(out, GlobalConn{
				A: RouterID(r), APort: p,
				B: peer, BPort: int(t.globalPeerPort[r*g+p]),
			})
		}
	}
	return out
}

// MinimalRouterHops returns the number of routers a minimally routed packet
// traverses from src node to dst node; same-router delivery counts 1, the
// worst minimal inter-group path (leaf, gateway spine, peer spine, leaf)
// counts 4.
func (t *DragonflyPlus) MinimalRouterHops(src, dst NodeID) int {
	rs, rd := t.RouterOfNode(src), t.RouterOfNode(dst)
	gs, gd := t.GroupOfRouter(rs), t.GroupOfRouter(rd)
	if gs == gd {
		return 1 + t.LocalDistance(rs, rd)
	}
	best := -1
	for _, gw := range t.Gateways(gs, gd) {
		h := 1 + t.LocalDistance(rs, gw.Router) + 1 + t.LocalDistance(gw.Peer, rd)
		if best < 0 || h < best {
			best = h
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("topology: groups %d and %d are not connected", gs, gd))
	}
	return best
}

// Describe returns a human-readable inventory of the machine.
func (t *DragonflyPlus) Describe() string {
	c := t.cfg
	wired := len(t.GlobalConns())
	return fmt.Sprintf(
		"dragonfly+: %d groups x (%d leaves + %d spines) x %d nodes/leaf = %d routers, %d nodes\n"+
			"  chassis: %d (%d leaves each), cabinets: %d (%d chassis each)\n"+
			"  local links: complete bipartite leaf<->spine (%d per group)\n"+
			"  global ports/spine: %d; bidirectional global links: %d (%d per group pair)\n",
		c.Groups, c.Leaves, c.Spines, c.NodesPerLeaf, t.numRouters, t.numNodes,
		t.ChassisCount(), c.LeavesPerChassis, t.CabinetCount(), c.ChassisPerCabinet,
		c.Leaves*c.Spines,
		c.GlobalPortsPerSpine, wired, perPairOrZero(wired, c.Groups),
	)
}
