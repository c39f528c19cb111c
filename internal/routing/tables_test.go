package routing

// Tests of the chooser's resolved tables: construction must not depend on
// the worker count, and the steady-state route path must not allocate.

import (
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/par"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

// saltedCong is a deterministic non-trivial congestion oracle so the adaptive
// scoring actually discriminates between candidates.
type saltedCong struct{}

func (saltedCong) OutputBacklog(from, to topology.RouterID) int64 {
	return int64((uint64(from)*2654435761 + uint64(to)*40503) % 9001)
}

// routeAll drives ch over a fixed deterministic pair sample, returning the
// hop sequences (copied out of the arena storage).
func routeAll(t *testing.T, topo topology.Interconnect, ch *Chooser, n int) [][]Hop {
	t.Helper()
	rng := des.NewRNG(77, "cmp-pairs")
	out := make([][]Hop, 0, n)
	for len(out) < n {
		s := topology.NodeID(rng.Intn(topo.NumNodes()))
		d := topology.NodeID(rng.Intn(topo.NumNodes()))
		p, err := ch.TryRoute(s, d)
		if err != nil {
			out = append(out, []Hop{{From: -1}}) // mark unreachable pairs
			continue
		}
		out = append(out, append([]Hop(nil), p.Hops...))
		ch.Release(p)
	}
	return out
}

func sameHops(a, b [][]Hop) (int, bool) {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return i, false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return i, false
			}
		}
	}
	return 0, true
}

// TestCompactWorkerCountInvariance: chooser construction is sharded across
// the par pool; the routes it produces must not depend on the worker count.
func TestCompactWorkerCountInvariance(t *testing.T) {
	topo := topotest.Mini(t)
	build := func(w int) [][]Hop {
		prev := par.SetWorkers(w)
		defer par.SetWorkers(prev)
		ch := NewChooserOpts(topo, Adaptive, des.NewRNG(3, "wrk"), saltedCong{}, Options{})
		return routeAll(t, topo, ch, 300)
	}
	want := build(1)
	for _, w := range []int{2, 3, 8} {
		if i, ok := sameHops(want, build(w)); !ok {
			t.Fatalf("workers=%d: route %d differs from single-worker build", w, i)
		}
	}
}

// TestCompactMemoSteadyStateAllocFree: once the pair working set has been
// touched (its gateway shards filled), further routes must not allocate —
// every path is rebuilt into recycled arena storage, the guarantee the
// 0 allocs/op gate relies on.
func TestCompactMemoSteadyStateAllocFree(t *testing.T) {
	topo := topotest.Mini(t)
	ch := NewChooserOpts(topo, Minimal, des.NewRNG(21, "al"), nil, Options{})
	rng := des.NewRNG(22, "al-pairs")
	const pairs = 512
	srcs := make([]topology.NodeID, pairs)
	dsts := make([]topology.NodeID, pairs)
	for i := range srcs {
		srcs[i] = topology.NodeID(rng.Intn(topo.NumNodes()))
		dsts[i] = topology.NodeID(rng.Intn(topo.NumNodes()))
	}
	warm := func() {
		for i := range srcs {
			ch.Release(ch.Route(srcs[i], dsts[i]))
		}
	}
	warm()
	if avg := testing.AllocsPerRun(20, warm); avg > 0 {
		t.Fatalf("steady-state routing allocates %.1f per sweep, want 0", avg)
	}
}
