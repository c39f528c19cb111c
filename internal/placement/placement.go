// Package placement implements the five job placement policies the paper
// compares (Sec. III-B). A placement maps MPI rank i of a job to the i-th
// node of the returned allocation, so "contiguity" of the allocation order
// is what preserves communication locality.
package placement

import (
	"fmt"

	"dragonfly/internal/des"
	"dragonfly/internal/topology"
)

// Policy selects one of the paper's placement schemes.
type Policy int

const (
	// Contiguous assigns consecutive nodes, preserving spatial locality and
	// tending to keep a job inside one group.
	Contiguous Policy = iota
	// RandomCabinet allocates randomly chosen cabinets; nodes within a
	// cabinet stay contiguous.
	RandomCabinet
	// RandomChassis allocates randomly chosen chassis; nodes within a
	// chassis stay contiguous.
	RandomChassis
	// RandomRouter allocates randomly chosen routers; the nodes of a router
	// stay together.
	RandomRouter
	// RandomNode scatters individual nodes across the whole machine,
	// balancing traffic at the cost of longer paths.
	RandomNode
)

// String returns the paper's abbreviation (Table I): cont, cab, chas, rotr,
// rand.
func (p Policy) String() string {
	switch p {
	case Contiguous:
		return "cont"
	case RandomCabinet:
		return "cab"
	case RandomChassis:
		return "chas"
	case RandomRouter:
		return "rotr"
	case RandomNode:
		return "rand"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// All lists the policies in the paper's presentation order.
func All() []Policy {
	return []Policy{Contiguous, RandomCabinet, RandomChassis, RandomRouter, RandomNode}
}

// Parse converts an abbreviation or full name to a Policy.
func Parse(s string) (Policy, error) {
	switch s {
	case "cont", "contiguous":
		return Contiguous, nil
	case "cab", "random-cabinet", "cabinet":
		return RandomCabinet, nil
	case "chas", "random-chassis", "chassis":
		return RandomChassis, nil
	case "rotr", "random-router", "router":
		return RandomRouter, nil
	case "rand", "random-node", "node":
		return RandomNode, nil
	}
	return 0, fmt.Errorf("placement: unknown policy %q", s)
}

// Allocate returns the nodes assigned to a job of size ranks on an empty
// machine; rank i runs on the i-th returned node. The rng drives every
// random choice, so a (policy, size, seed) triple is reproducible.
func Allocate(topo topology.Interconnect, p Policy, size int, rng *des.RNG) ([]topology.NodeID, error) {
	return AllocateFrom(NewPool(topo), p, size, rng)
}

// Remaining returns the machine's nodes not in used (an allocation), in
// ascending order — the nodes the paper's synthetic background job occupies.
func Remaining(topo topology.Interconnect, used []topology.NodeID) []topology.NodeID {
	p := NewPool(topo)
	p.claim(used)
	return p.FreeNodes()
}
