package placement

import (
	"fmt"

	"dragonfly/internal/des"
	"dragonfly/internal/topology"
)

// Pool tracks which nodes of a machine are free, so several jobs can be
// placed one after another — the multijob scenario of a production system
// (Sec. IV-C motivates it). Every simulated job is placed from one: each
// core.Session owns a pool, a single-job run places on it while it is still
// empty, and Allocate is AllocateFrom on a fresh pool.
type Pool struct {
	topo  topology.Interconnect
	taken []bool
	free  int
}

// NewPool returns a pool with every node free.
func NewPool(topo topology.Interconnect) *Pool {
	return &Pool{
		topo:  topo,
		taken: make([]bool, topo.NumNodes()),
		free:  topo.NumNodes(),
	}
}

// Free returns the number of unallocated nodes.
func (p *Pool) Free() int { return p.free }

// FreeNodes returns the unallocated nodes in ascending order.
func (p *Pool) FreeNodes() []topology.NodeID {
	out := make([]topology.NodeID, 0, p.free)
	for n, taken := range p.taken {
		if !taken {
			out = append(out, topology.NodeID(n))
		}
	}
	return out
}

// claim marks nodes allocated; it panics on double allocation (a Pool bug,
// not a data condition).
func (p *Pool) claim(nodes []topology.NodeID) {
	for _, n := range nodes {
		if p.taken[n] {
			panic(fmt.Sprintf("placement: node %d allocated twice", n))
		}
		p.taken[n] = true
	}
	p.free -= len(nodes)
}

// Release returns nodes to the pool (job completion).
func (p *Pool) Release(nodes []topology.NodeID) {
	for _, n := range nodes {
		if !p.taken[n] {
			panic(fmt.Sprintf("placement: releasing free node %d", n))
		}
		p.taken[n] = false
	}
	p.free += len(nodes)
}

// AllocateFrom places a job of `size` ranks on the pool's free nodes under
// the given policy and claims them. Unit-based policies (cabinet, chassis,
// router) fill the free nodes of each randomly chosen unit contiguously,
// so fragmentation degrades locality exactly as it would on a real machine.
func AllocateFrom(p *Pool, pol Policy, size int, rng *des.RNG) ([]topology.NodeID, error) {
	if size < 1 {
		return nil, fmt.Errorf("placement: job size %d must be >= 1", size)
	}
	if size > p.free {
		return nil, fmt.Errorf("placement: job size %d exceeds %d free nodes", size, p.free)
	}
	topo := p.topo
	var out []topology.NodeID
	switch pol {
	case Contiguous:
		out = make([]topology.NodeID, 0, size)
		for n := 0; n < topo.NumNodes() && len(out) < size; n++ {
			if !p.taken[n] {
				out = append(out, topology.NodeID(n))
			}
		}
	case RandomCabinet:
		out = fillUnitsFrom(p, size, rng, topo.CabinetCount(), func(u int) []topology.NodeID {
			return nodesOfRouters(topo, topo.RoutersInCabinet(u))
		})
	case RandomChassis:
		out = fillUnitsFrom(p, size, rng, topo.ChassisCount(), func(u int) []topology.NodeID {
			return nodesOfRouters(topo, topo.RoutersInChassis(u))
		})
	case RandomRouter:
		out = fillUnitsFrom(p, size, rng, topo.NumRouters(), func(u int) []topology.NodeID {
			return topo.NodesOfRouter(topology.RouterID(u))
		})
	case RandomNode:
		frees := p.FreeNodes()
		perm := rng.Perm(len(frees))
		out = make([]topology.NodeID, size)
		for i := range out {
			out[i] = frees[perm[i]]
		}
	default:
		return nil, fmt.Errorf("placement: unknown policy %d", int(pol))
	}
	if len(out) != size {
		return nil, fmt.Errorf("placement: %v allocated %d/%d nodes", pol, len(out), size)
	}
	p.claim(out)
	return out, nil
}

// fillUnitsFrom shuffles units and takes each unit's free nodes in order.
func fillUnitsFrom(p *Pool, size int, rng *des.RNG, units int, nodesOf func(int) []topology.NodeID) []topology.NodeID {
	order := rng.Perm(units)
	out := make([]topology.NodeID, 0, size)
	for _, u := range order {
		for _, n := range nodesOf(u) {
			if p.taken[n] {
				continue
			}
			out = append(out, n)
			if len(out) == size {
				return out
			}
		}
	}
	return out
}

func nodesOfRouters(topo topology.Interconnect, rs []topology.RouterID) []topology.NodeID {
	out := make([]topology.NodeID, 0, len(rs)*topo.NodesPerRouter())
	for _, r := range rs {
		out = append(out, topo.NodesOfRouter(r)...)
	}
	return out
}
