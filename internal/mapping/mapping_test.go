package mapping

import (
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/placement"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

func alloc(t *testing.T, topo *topology.Dragonfly, pol placement.Policy, n int) []topology.NodeID {
	t.Helper()
	nodes, err := placement.Allocate(topo, pol, n, des.NewRNG(1, "alloc"))
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func samePermutation(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[topology.NodeID]int{}
	for _, n := range a {
		seen[n]++
	}
	for _, n := range b {
		seen[n]--
	}
	for _, c := range seen {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestStringParseRoundTrip(t *testing.T) {
	for _, p := range All() {
		got, err := Parse(p.String())
		if err != nil || got != p {
			t.Errorf("Parse(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := Parse("nope"); err == nil {
		t.Error("Parse accepted garbage")
	}
}

func TestIdentityKeepsOrder(t *testing.T) {
	topo := topotest.Mini(t)
	nodes := alloc(t, topo, placement.RandomNode, 20)
	out, err := Apply(Identity, topo, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		if out[i] != nodes[i] {
			t.Fatal("identity mapping reordered nodes")
		}
	}
}

func TestAllPoliciesArePermutations(t *testing.T) {
	topo := topotest.Mini(t)
	nodes := alloc(t, topo, placement.RandomNode, 30)
	for _, p := range All() {
		out, err := Apply(p, topo, nodes, des.NewRNG(2, "m"))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !samePermutation(nodes, out) {
			t.Fatalf("%v: output is not a permutation of the allocation", p)
		}
	}
	// Input never mutated.
	again := alloc(t, topo, placement.RandomNode, 30)
	for i := range nodes {
		if nodes[i] != again[i] {
			t.Fatal("Apply mutated its input")
		}
	}
}

// The rank -> node assignment must be invertible for every policy and
// allocation size: node -> rank -> node is the identity over the allocation,
// and every allocated node receives exactly one rank. Sizes cover the
// degenerate single-rank job and the full machine.
func TestRankNodeRoundTrip(t *testing.T) {
	topo := topotest.Mini(t)
	for _, size := range []int{1, 2, 7, 32, topo.NumNodes()} {
		nodes := alloc(t, topo, placement.RandomNode, size)
		for _, p := range All() {
			out, err := Apply(p, topo, nodes, des.NewRNG(5, "rt"))
			if err != nil {
				t.Fatalf("%v size %d: %v", p, size, err)
			}
			rankOf := make(map[topology.NodeID]int, len(out))
			for rank, n := range out {
				if prev, dup := rankOf[n]; dup {
					t.Fatalf("%v size %d: node %d assigned to ranks %d and %d", p, size, n, prev, rank)
				}
				rankOf[n] = rank
			}
			for _, n := range nodes {
				rank, ok := rankOf[n]
				if !ok {
					t.Fatalf("%v size %d: allocated node %d received no rank", p, size, n)
				}
				if out[rank] != n {
					t.Fatalf("%v size %d: round trip broke at node %d", p, size, n)
				}
			}
		}
	}
}

// Unknown policies are rejected, never silently identity-mapped.
func TestApplyRejectsUnknownPolicy(t *testing.T) {
	topo := topotest.Mini(t)
	nodes := alloc(t, topo, placement.Contiguous, 4)
	if _, err := Apply(Policy(99), topo, nodes, nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRouterPackedPacksConsecutiveRanks(t *testing.T) {
	topo := topotest.Mini(t)
	// Random-node allocation scatters; router-packed must re-pack pairs of
	// ranks onto shared routers wherever both nodes of a router were
	// allocated.
	nodes := alloc(t, topo, placement.RandomNode, 64) // whole machine
	out, err := Apply(RouterPacked, topo, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With the full machine allocated, ranks 2k and 2k+1 share a router.
	for i := 0; i+1 < len(out); i += 2 {
		if topo.RouterOfNode(out[i]) != topo.RouterOfNode(out[i+1]) {
			t.Fatalf("ranks %d,%d on different routers after RouterPacked", i, i+1)
		}
	}
}

func TestGroupPackedGroupsMonotone(t *testing.T) {
	topo := topotest.Mini(t)
	nodes := alloc(t, topo, placement.RandomNode, 40)
	out, err := Apply(GroupPacked, topo, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(out); i++ {
		if topo.GroupOfNode(out[i]) < topo.GroupOfNode(out[i-1]) {
			t.Fatal("groups not monotone after GroupPacked")
		}
	}
}

func TestShuffleNeedsRNGAndIsSeeded(t *testing.T) {
	topo := topotest.Mini(t)
	nodes := alloc(t, topo, placement.Contiguous, 32)
	if _, err := Apply(Shuffle, topo, nodes, nil); err == nil {
		t.Fatal("Shuffle without RNG accepted")
	}
	a, _ := Apply(Shuffle, topo, nodes, des.NewRNG(7, "s"))
	b, _ := Apply(Shuffle, topo, nodes, des.NewRNG(7, "s"))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed shuffled differently")
		}
	}
	c, _ := Apply(Shuffle, topo, nodes, des.NewRNG(8, "s"))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds shuffled identically")
	}
}
