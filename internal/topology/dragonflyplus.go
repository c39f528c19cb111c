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
	}
	return c.layout().validate()
}

// layout puts the leaves first in each group, holding the nodes, and the
// spines after them, holding the global ports.
func (c PlusConfig) layout() layout {
	return layout{
		groups:            c.Groups,
		routersPerGroup:   c.RoutersPerGroup(),
		holders:           c.Leaves,
		nodesPerRouter:    c.NodesPerLeaf,
		chassisSize:       c.LeavesPerChassis,
		chassisPerCabinet: c.ChassisPerCabinet,
		portBase:          c.Leaves,
		portsPerRouter:    c.GlobalPortsPerSpine,
	}
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

// DragonflyPlus is an immutable, fully wired Dragonfly+ machine: the shared
// group-major layout with the leaves first in each group (0..Leaves-1), then
// the spines, plus the complete bipartite leaf-spine local fabric.
type DragonflyPlus struct {
	cfg PlusConfig
	layout

	// Shared local-neighbor lists, resolved once at construction: every leaf
	// of group g has exactly the spines of g as neighbors and every spine the
	// leaves, so one slice per (group, side) serves all its routers.
	spineNbrs [][]RouterID // indexed by group: the spines of that group
	leafNbrs  [][]RouterID // indexed by group: the leaves of that group
}

// NewPlus builds and wires a Dragonfly+ machine.
func NewPlus(cfg PlusConfig) (*DragonflyPlus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &DragonflyPlus{cfg: cfg, layout: cfg.layout()}
	t.wire(t)
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

// IsLeaf reports whether r is a leaf (node-holding) router.
func (t *DragonflyPlus) IsLeaf(r RouterID) bool { return t.holds(r) }

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

// Describe returns a human-readable inventory of the machine.
func (t *DragonflyPlus) Describe() string {
	c := t.cfg
	wired := len(t.GlobalConns())
	return fmt.Sprintf(
		"dragonfly+: %d groups x (%d leaves + %d spines) x %d nodes/leaf = %d routers, %d nodes\n"+
			"  chassis: %d (%d leaves each), cabinets: %d (%d chassis each)\n"+
			"  local links: complete bipartite leaf<->spine (%d per group)\n"+
			"  global ports/spine: %d; bidirectional global links: %d (%d per group pair)\n",
		c.Groups, c.Leaves, c.Spines, c.NodesPerLeaf, t.NumRouters(), t.NumNodes(),
		t.ChassisCount(), c.LeavesPerChassis, t.CabinetCount(), c.ChassisPerCabinet,
		c.Leaves*c.Spines,
		c.GlobalPortsPerSpine, wired, perPairOrZero(wired, c.Groups),
	)
}
