package topology

import (
	"fmt"
	"sort"
)

// Interconnect is the machine-neutral service-provider interface the rest of
// the stack (routing, network, placement, mapping, audit, core) consumes.
// Dragonfly (the XC40 grid of the paper) and DragonflyPlus (two-layer
// leaf/spine groups per Kang et al.) implement it. Both embed the shared
// group-major layout (layout.go), which answers every method except Name,
// Describe and the four Local* queries; a family supplies only those.
//
// The interface is a construction-time seam, not a per-event one: consumers
// resolve what they need into dense tables when they are built (router of
// every node, canonical next hop of every intra-group pair, gateway sets)
// and never call through the interface on the simulation hot path. New
// implementations therefore only have to be correct, not fast, except that
// the list-valued queries (LocalNeighbors, GlobalConns, Gateways) are read
// once per run or per health rebuild and should hand out shared slices
// resolved at construction rather than allocate per call.
//
// Structural contract every implementation must satisfy:
//
//   - Routers are numbered group-major: group g owns the contiguous range
//     [g*R, (g+1)*R) for a fixed per-group router count R.
//   - Nodes are numbered so that RouterOfNode is monotone (contiguous node
//     ranges are physically adjacent); routers may own zero nodes.
//   - LocalNextHop defines, per ordered router pair of one group, a single
//     canonical minimal route; repeatedly applying it must terminate at dst
//     and the union of those routes must be cycle-free per VC class (see
//     DESIGN.md "The interconnect SPI" for the deadlock argument).
//   - Gateways(a, b) is non-empty for every group pair a != b (Validate
//     rejects a machine with fewer than Groups-1 global ports per group),
//     and each Gateway carries its precomputed far-end router in Peer.
//   - ValiantRouter enumerates the routers eligible as Valiant
//     intermediates; the set must keep the VC classes within
//     routing.NumLocalVC/NumGlobalVC. The layout picks the node-holding
//     routers, which on DragonflyPlus are the leaves.
type Interconnect interface {
	// Name identifies the topology family ("dragonfly", "dragonfly+").
	Name() string
	// Describe returns a human-readable inventory of the machine.
	Describe() string

	NumGroups() int
	NumRouters() int
	NumNodes() int
	// NodesPerRouter is the maximum node count of any router (placement
	// uses it to size per-router scratch); routers may own fewer.
	NodesPerRouter() int

	RouterOfNode(n NodeID) RouterID
	NodesOfRouter(r RouterID) []NodeID
	GroupOfRouter(r RouterID) int
	GroupOfNode(n NodeID) int

	// Chassis and cabinets are the physical units the random-chassis and
	// random-cabinet placement policies select over.
	ChassisCount() int
	RoutersInChassis(chassis int) []RouterID
	CabinetCount() int
	RoutersInCabinet(cabinet int) []RouterID

	// LocalNeighbors lists the routers joined to r by local links, in the
	// deterministic order the fabric creates the links in. The slice is
	// shared, not to be mutated.
	LocalNeighbors(r RouterID) []RouterID
	LocalConnected(a, b RouterID) bool
	// LocalDistance is the intra-group hop distance; panics across groups.
	LocalDistance(a, b RouterID) int
	// LocalNextHop is the router after cur on the canonical minimal
	// intra-group route cur -> dst; panics across groups.
	LocalNextHop(cur, dst RouterID) RouterID

	// GlobalConns enumerates every wired global link exactly once. The
	// slice is shared, not to be mutated.
	GlobalConns() []GlobalConn
	GlobalConnected(a, b RouterID) bool
	// Gateways lists the (router, port, peer) triples of group src whose
	// global links land in group dst; the slice is shared, not to be
	// mutated.
	Gateways(src, dst int) []Gateway

	// NumValiantRouters/ValiantRouter enumerate the eligible Valiant
	// intermediates of the adaptive routing policy.
	NumValiantRouters() int
	ValiantRouter(i int) RouterID

	// MinimalRouterHops counts routers a minimally routed packet traverses
	// between two nodes (same-router delivery counts 1).
	MinimalRouterHops(src, dst NodeID) int
}

var (
	_ Interconnect = (*Dragonfly)(nil)
	_ Interconnect = (*DragonflyPlus)(nil)
)

// Machine is a buildable machine description: a topology config that knows
// how to wire itself. Config (XC40 dragonfly) and PlusConfig (Dragonfly+)
// implement it, so core.Config can carry either without knowing which.
type Machine interface {
	Build() (Interconnect, error)
	// Label is a compact deterministic description of the machine shape.
	Label() string
	// CanonicalSpec renders every shape field deterministically: two
	// machines share it exactly when they build identical fabrics. It is the
	// machine's part of a run's content address (package farm).
	CanonicalSpec() string
}

// BuildMachine builds m, panicking on invalid configurations; the Machine
// counterpart of MustNew.
func BuildMachine(m Machine) Interconnect {
	ic, err := m.Build()
	if err != nil {
		panic(err)
	}
	return ic
}

// presets are the named machines the CLIs expose via -topo and the
// cross-topology property tests iterate over.
var presets = map[string]Machine{
	"theta":       Theta(),
	"mini":        Mini(),
	"dfplus":      Plus(),
	"dfplus-mini": PlusMini(),
}

// Preset resolves a machine name (theta|mini|dfplus|dfplus-mini).
func Preset(name string) (Machine, error) {
	m, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("topology: unknown machine %q (have %v)", name, PresetNames())
	}
	return m, nil
}

// PresetNames lists the registered machine names in sorted order.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
