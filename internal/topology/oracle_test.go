package topology_test

import (
	"fmt"
	"sort"
	"testing"

	"dragonfly/internal/topology"
)

// oracleMachine is a machine rebuilt straight from its definition, sharing
// no code with the wiring or the layout: which routers each router is
// locally linked to, which routers hold nodes, how many routers make a
// chassis and how many global links each group pair gets.
type oracleMachine struct {
	local       [][]topology.RouterID // local[r]: r's local peers, ascending
	holders     []topology.RouterID   // node-holding routers, ascending
	nodesPer    int
	chassisSize int
	perPair     int // global links joining each group pair
}

// oracleXC40: every group is a Rows x Cols grid, numbered group-major then
// row-major, all-to-all along each row and each column; every router holds
// NodesPerRouter nodes, a chassis is one grid row, and the ports of a group
// spread evenly over the other groups.
func oracleXC40(c topology.Config) oracleMachine {
	id := func(g, row, col int) topology.RouterID {
		return topology.RouterID((g*c.Rows+row)*c.Cols + col)
	}
	o := oracleMachine{nodesPer: c.NodesPerRouter, chassisSize: c.Cols,
		perPair: c.Rows * c.Cols * c.GlobalPortsPerRouter / (c.Groups - 1)}
	for g := 0; g < c.Groups; g++ {
		for row := 0; row < c.Rows; row++ {
			for col := 0; col < c.Cols; col++ {
				var nb []topology.RouterID
				for r2 := 0; r2 < c.Rows; r2++ {
					for c2 := 0; c2 < c.Cols; c2++ {
						if (r2 == row) != (c2 == col) {
							nb = append(nb, id(g, r2, c2))
						}
					}
				}
				o.local = append(o.local, nb)
				o.holders = append(o.holders, id(g, row, col))
			}
		}
	}
	return o
}

// oraclePlus: every group is Leaves leaves then Spines spines, complete
// bipartite between the two; leaves hold NodesPerLeaf nodes, a chassis is
// LeavesPerChassis leaves, and the spine ports of a group spread evenly
// over the other groups.
func oraclePlus(c topology.PlusConfig) oracleMachine {
	rpg := c.Leaves + c.Spines
	o := oracleMachine{nodesPer: c.NodesPerLeaf, chassisSize: c.LeavesPerChassis,
		perPair: c.Spines * c.GlobalPortsPerSpine / (c.Groups - 1)}
	for g := 0; g < c.Groups; g++ {
		for i := 0; i < rpg; i++ {
			leaf := i < c.Leaves
			var nb []topology.RouterID
			for j := 0; j < rpg; j++ {
				if (j < c.Leaves) != leaf {
					nb = append(nb, topology.RouterID(g*rpg+j))
				}
			}
			o.local = append(o.local, nb)
			if leaf {
				o.holders = append(o.holders, topology.RouterID(g*rpg+i))
			}
		}
	}
	return o
}

// TestStructuralOracle checks every preset against its oracle rebuild:
// local links, global links per group pair, node attachment, chassis and
// cabinet partitions, and the router graph's BFS diameters — over all
// routers and between node-holding routers — as measured when the oracle
// was written.
func TestStructuralOracle(t *testing.T) {
	diameters := map[string][2]int{
		"theta":       {3, 3},
		"mini":        {3, 3},
		"dfplus":      {5, 3},
		"dfplus-mini": {4, 3},
	}
	for _, name := range topology.PresetNames() {
		t.Run(name, func(t *testing.T) {
			m, err := topology.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			ic := topology.BuildMachine(m)
			var o oracleMachine
			switch c := m.(type) {
			case topology.Config:
				o = oracleXC40(c)
			case topology.PlusConfig:
				o = oraclePlus(c)
			default:
				t.Fatalf("no oracle for %T", m)
			}
			if len(o.local) != ic.NumRouters() {
				t.Fatalf("oracle has %d routers, machine %d", len(o.local), ic.NumRouters())
			}

			adj := make([][]topology.RouterID, ic.NumRouters())
			for r := range o.local {
				got := append([]topology.RouterID(nil), ic.LocalNeighbors(topology.RouterID(r))...)
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if fmt.Sprint(got) != fmt.Sprint(o.local[r]) {
					t.Fatalf("router %d: local neighbors %v, oracle %v", r, got, o.local[r])
				}
				adj[r] = append(adj[r], o.local[r]...)
			}

			g := ic.NumGroups()
			pairLinks := map[[2]int]int{}
			for _, c := range ic.GlobalConns() {
				ga, gb := ic.GroupOfRouter(c.A), ic.GroupOfRouter(c.B)
				if ga > gb {
					ga, gb = gb, ga
				}
				pairLinks[[2]int{ga, gb}]++
				adj[c.A] = append(adj[c.A], c.B)
				adj[c.B] = append(adj[c.B], c.A)
			}
			for a := 0; a < g; a++ {
				for b := a + 1; b < g; b++ {
					if n := pairLinks[[2]int{a, b}]; n != o.perPair {
						t.Fatalf("groups %d-%d joined by %d global links, oracle %d", a, b, n, o.perPair)
					}
					if n := len(ic.Gateways(a, b)); n != o.perPair {
						t.Fatalf("Gateways(%d,%d) has %d entries, oracle %d", a, b, n, o.perPair)
					}
				}
			}

			holder := map[topology.RouterID]bool{}
			for _, r := range o.holders {
				holder[r] = true
			}
			for r := topology.RouterID(0); int(r) < ic.NumRouters(); r++ {
				want := 0
				if holder[r] {
					want = o.nodesPer
				}
				if got := len(ic.NodesOfRouter(r)); got != want {
					t.Fatalf("router %d holds %d nodes, oracle %d", r, got, want)
				}
			}
			partition := func(unit string, count int, routersIn func(int) []topology.RouterID) {
				seen := map[topology.RouterID]bool{}
				for u := 0; u < count; u++ {
					for _, r := range routersIn(u) {
						if !holder[r] || seen[r] {
							t.Fatalf("%s %d: router %d is not a holder or is in two units", unit, u, r)
						}
						seen[r] = true
					}
				}
				if len(seen) != len(o.holders) {
					t.Fatalf("%s units cover %d of %d holders", unit, len(seen), len(o.holders))
				}
			}
			partition("chassis", ic.ChassisCount(), ic.RoutersInChassis)
			partition("cabinet", ic.CabinetCount(), ic.RoutersInCabinet)
			for ch := 0; ch < ic.ChassisCount(); ch++ {
				if n := len(ic.RoutersInChassis(ch)); n != o.chassisSize {
					t.Fatalf("chassis %d has %d routers, oracle %d", ch, n, o.chassisSize)
				}
			}

			all := make([]topology.RouterID, ic.NumRouters())
			for r := range all {
				all[r] = topology.RouterID(r)
			}
			want := diameters[name]
			if d := bfsDiameter(adj, all); d != want[0] {
				t.Errorf("router-graph diameter %d, want %d", d, want[0])
			}
			if d := bfsDiameter(adj, o.holders); d != want[1] {
				t.Errorf("diameter between node-holding routers %d, want %d", d, want[1])
			}
		})
	}
}

// bfsDiameter returns the largest hop distance between two routers of set
// in the graph adj, or -1 if some pair is disconnected.
func bfsDiameter(adj [][]topology.RouterID, set []topology.RouterID) int {
	dist := make([]int, len(adj))
	diam := 0
	for _, src := range set {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []topology.RouterID{src}
		for len(queue) > 0 {
			r := queue[0]
			queue = queue[1:]
			for _, nb := range adj[r] {
				if dist[nb] < 0 {
					dist[nb] = dist[r] + 1
					queue = append(queue, nb)
				}
			}
		}
		for _, dst := range set {
			if dist[dst] < 0 {
				return -1
			}
			if dist[dst] > diam {
				diam = dist[dst]
			}
		}
	}
	return diam
}
