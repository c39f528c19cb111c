// Package topotest provides the shared machine constructors the simulator's
// test suites build on, replacing the per-package theta()/MustNew(Mini())
// boilerplate, plus Each — an iterator over every registered machine preset
// for cross-topology property tests. It imports only package topology, so
// every layer's tests (routing, placement, network, ...) can use it without
// import cycles.
package topotest

import (
	"testing"

	"dragonfly/internal/topology"
)

// Theta returns the paper's wired XC40 machine (9 groups x 6x16 x 4 nodes).
func Theta(tb testing.TB) *topology.Dragonfly {
	tb.Helper()
	return topology.MustNew(topology.Theta())
}

// Mini returns the small wired XC40 machine used by fast tests.
func Mini(tb testing.TB) *topology.Dragonfly {
	tb.Helper()
	return topology.MustNew(topology.Mini())
}

// Plus returns the wired 1296-node Dragonfly+ machine.
func Plus(tb testing.TB) *topology.DragonflyPlus {
	tb.Helper()
	return mustPlus(tb, topology.Plus())
}

// PlusMini returns the small wired Dragonfly+ machine used by fast tests.
func PlusMini(tb testing.TB) *topology.DragonflyPlus {
	tb.Helper()
	return mustPlus(tb, topology.PlusMini())
}

// ColumnFirst returns the mini XC40 machine with group isomorphism broken in
// group 1: its canonical intra-group route takes the column hop before the
// row hop, and its routers list their local neighbors (and so create their
// local links) in reverse order. The other groups keep the preset's wiring,
// so no single per-group template describes the machine — the route and
// link tables must hold for it all the same.
func ColumnFirst(tb testing.TB) topology.Interconnect {
	tb.Helper()
	df := Mini(tb)
	m := &columnFirst{Dragonfly: df, nbrs: make([][]topology.RouterID, df.NumRouters())}
	for r := range m.nbrs {
		nb := df.LocalNeighbors(topology.RouterID(r))
		if df.GroupOfRouter(topology.RouterID(r)) == 1 {
			rev := make([]topology.RouterID, len(nb))
			for i, v := range nb {
				rev[len(nb)-1-i] = v
			}
			nb = rev
		}
		m.nbrs[r] = nb
	}
	return m
}

type columnFirst struct {
	*topology.Dragonfly
	nbrs [][]topology.RouterID
}

func (m *columnFirst) LocalNeighbors(r topology.RouterID) []topology.RouterID { return m.nbrs[r] }

func (m *columnFirst) LocalNextHop(cur, dst topology.RouterID) topology.RouterID {
	if m.GroupOfRouter(cur) != 1 || cur == dst {
		return m.Dragonfly.LocalNextHop(cur, dst)
	}
	cc, cd := m.RouterCoord(cur), m.RouterCoord(dst)
	if cc.Row != cd.Row {
		return m.RouterAt(cc.Group, cd.Row, cc.Col)
	}
	return dst
}

func mustPlus(tb testing.TB, cfg topology.PlusConfig) *topology.DragonflyPlus {
	tb.Helper()
	t, err := topology.NewPlus(cfg)
	if err != nil {
		tb.Fatalf("topotest: %v", err)
	}
	return t
}

// Each runs f as a subtest per registered machine preset (theta, mini,
// dfplus, dfplus-mini), building the machine fresh for each. Properties
// asserted under Each hold for every interconnect the simulator ships.
func Each(t *testing.T, f func(t *testing.T, m topology.Machine, ic topology.Interconnect)) {
	for _, name := range topology.PresetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := topology.Preset(name)
			if err != nil {
				t.Fatalf("topotest: %v", err)
			}
			ic, err := m.Build()
			if err != nil {
				t.Fatalf("topotest: build %s: %v", name, err)
			}
			f(t, m, ic)
		})
	}
}

// EachSmall is Each restricted to the mini machines — for per-node-pair
// sweeps and full simulation runs that would be slow at full scale.
func EachSmall(t *testing.T, f func(t *testing.T, m topology.Machine, ic topology.Interconnect)) {
	for _, name := range []string{"mini", "dfplus-mini"} {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := topology.Preset(name)
			if err != nil {
				t.Fatalf("topotest: %v", err)
			}
			ic, err := m.Build()
			if err != nil {
				t.Fatalf("topotest: build %s: %v", name, err)
			}
			f(t, m, ic)
		})
	}
}
