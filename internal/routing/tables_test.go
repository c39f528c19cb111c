package routing

// Tests of the chooser's resolved tables: construction must not depend on
// the worker count, and the steady-state route path must not allocate.

import (
	"reflect"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
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
// the par pool, on healthy and faulted fabrics alike; the routes it
// produces must not depend on the worker count.
func TestCompactWorkerCountInvariance(t *testing.T) {
	topo := topotest.Mini(t)
	set, err := faults.Resolve(&faults.Spec{GlobalFrac: 0.1, LocalFrac: 0.1, Routers: 2, Seed: 3}, topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, health := range []topology.Health{nil, set} {
		build := func(w int) [][]Hop {
			prev := par.SetWorkers(w)
			defer par.SetWorkers(prev)
			ch := NewChooserOpts(topo, Adaptive, des.NewRNG(3, "wrk"), saltedCong{}, Options{Health: health})
			return routeAll(t, topo, ch, 300)
		}
		want := build(1)
		for _, w := range []int{2, 3, 8} {
			if i, ok := sameHops(want, build(w)); !ok {
				t.Fatalf("health %v, workers=%d: route %d differs from single-worker build", health != nil, w, i)
			}
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

// closeAfterRoutes routes 400 random pairs on c, releasing every other
// path at once and the rest, as a fabric's paths in flight, just before
// Close, closes c and returns the tables it handed back.
func closeAfterRoutes(c *Chooser) *tables {
	nodes := c.topo.NumNodes()
	rng := des.NewRNG(2, "old-pairs")
	var held []Path
	for i := 0; i < 400; i++ {
		p, err := c.TryRoute(topology.NodeID(rng.Intn(nodes)), topology.NodeID(rng.Intn(nodes)))
		switch {
		case err != nil:
		case i%2 == 0:
			c.Release(p)
		default:
			held = append(held, p)
		}
	}
	for _, p := range held {
		c.Release(p)
	}
	home := c.home
	c.Close()
	return home
}

// takeBackAfter routes on and closes the chooser old builds, then builds
// the next chooser with next, which must take back the closed tables with
// their arena full of hop slices.
func takeBackAfter(t *testing.T, old, next func() *Chooser) *Chooser {
	t.Helper()
	home := closeAfterRoutes(old())
	ch := next()
	if ch.home != home {
		t.Fatal("NewChooserOpts did not take back the closed chooser's tables")
	}
	if len(ch.freeHops) == 0 {
		t.Fatal("the taken-back arena holds no hop slices")
	}
	return ch
}

// TestClosedChooserTakenBackAsNew: NewChooserOpts takes back the tables a
// chooser closed — after caching another machine's gateway lists, after a
// larger machine's and then a smaller one's, or after filling the next-hop
// rows with live trees under faults — with its arena full of hop slices,
// and routes exactly as a chooser built on fresh memory does.
func TestClosedChooserTakenBackAsNew(t *testing.T) {
	mini := topotest.Mini(t)
	plus := topotest.PlusMini(t)
	// narrow has fewer routers and groups than mini and plus, and enough
	// nodes that it takes back the tables plus closed.
	narrow := topology.MustNew(topology.Config{Groups: 2, Rows: 2, Cols: 2, NodesPerRouter: 8, GlobalPortsPerRouter: 1, ChassisPerCabinet: 1})
	set, err := faults.Resolve(&faults.Spec{GlobalFrac: 0.1, LocalFrac: 0.1, Routers: 2, Seed: 3}, mini)
	if err != nil {
		t.Fatal(err)
	}
	next := func() *Chooser {
		return NewChooserOpts(mini, Adaptive, des.NewRNG(5, "route"), saltedCong{}, Options{})
	}
	ref := NewChooserOpts(mini, Adaptive, des.NewRNG(5, "route"), saltedCong{}, Options{NoCache: true})
	if ref.home != nil {
		t.Fatal("a NoCache chooser took pooled tables")
	}
	want := routeAll(t, mini, ref, 3000)
	for _, old := range []struct {
		name  string
		build func() *Chooser
	}{
		{"other machine", func() *Chooser {
			return NewChooserOpts(plus, Adaptive, des.NewRNG(1, "old"), saltedCong{}, Options{})
		}},
		{"a larger machine, then a smaller one", func() *Chooser {
			return takeBackAfter(t, func() *Chooser {
				return NewChooserOpts(plus, Adaptive, des.NewRNG(1, "old"), saltedCong{}, Options{})
			}, func() *Chooser {
				return NewChooserOpts(narrow, Adaptive, des.NewRNG(1, "old"), saltedCong{}, Options{})
			})
		}},
		{"live trees", func() *Chooser {
			return NewChooserOpts(mini, Minimal, des.NewRNG(1, "old"), saltedCong{}, Options{Health: set})
		}},
	} {
		ch := takeBackAfter(t, old.build, next)
		if !reflect.DeepEqual(routeAll(t, mini, ch, 3000), want) {
			t.Errorf("after a chooser on %s: routes on taken-back tables differ from routes on fresh memory", old.name)
		}
	}
}

// TestChooserDropsTablesOfFarLargerMachine: a chooser on a machine more
// than four times smaller than the one whose tables wait in the pool drops
// them and builds its own, so a Theta run's tables do not stay reachable
// through later runs on a small machine.
func TestChooserDropsTablesOfFarLargerMachine(t *testing.T) {
	theta := topotest.Theta(t)
	home := closeAfterRoutes(NewChooserOpts(theta, Adaptive, des.NewRNG(1, "old"), saltedCong{}, Options{}))
	mini := topotest.Mini(t)
	ch := NewChooserOpts(mini, Adaptive, des.NewRNG(1, "new"), saltedCong{}, Options{})
	if ch.home == home || cap(ch.routerOf) >= theta.NumNodes() {
		t.Fatalf("a chooser on %d nodes kept the tables of %d", mini.NumNodes(), theta.NumNodes())
	}
	ch.Close()
}
