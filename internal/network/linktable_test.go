package network

import (
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

// TestPairLinksMatchLinkList checks the router-pair link lookup against the
// fabric's own link list on every router pair: pairLinks(a, b) must be
// exactly the non-terminal links from a to b, in creation order (pickLink's
// tie break depends on the order). It covers every preset and a machine
// whose groups are not wired alike.
func TestPairLinksMatchLinkList(t *testing.T) {
	check := func(t *testing.T, topo topology.Interconnect) {
		f, err := New(des.New(), topo, DefaultParams(), routing.Minimal, des.NewRNG(1, "pl"))
		if err != nil {
			t.Fatal(err)
		}
		want := map[[2]topology.RouterID][]*link{}
		for _, l := range f.links {
			if l.kind != routing.Terminal {
				k := [2]topology.RouterID{l.from, l.to}
				want[k] = append(want[k], l)
			}
		}
		nR := topo.NumRouters()
		for a := 0; a < nR; a++ {
			for b := 0; b < nR; b++ {
				w := want[[2]topology.RouterID{topology.RouterID(a), topology.RouterID(b)}]
				got := f.pairLinks(topology.RouterID(a), topology.RouterID(b))
				if len(got) != len(w) {
					t.Fatalf("pair %d->%d: %d links, want %d", a, b, len(got), len(w))
				}
				for i := range w {
					if got[i] != w[i] {
						t.Fatalf("pair %d->%d slot %d: link %d, want %d", a, b, i, got[i].id, w[i].id)
					}
				}
			}
		}
	}
	topotest.Each(t, func(t *testing.T, _ topology.Machine, ic topology.Interconnect) { check(t, ic) })
	t.Run("column-first", func(t *testing.T) { check(t, topotest.ColumnFirst(t)) })
}

// doubledNeighbor lists router 0's first local neighbor twice, which the
// one-link-per-ordered-pair slot rows cannot hold.
type doubledNeighbor struct{ *topology.Dragonfly }

func (d doubledNeighbor) LocalNeighbors(r topology.RouterID) []topology.RouterID {
	nb := d.Dragonfly.LocalNeighbors(r)
	if r == 0 {
		return append(append([]topology.RouterID(nil), nb...), nb[0])
	}
	return nb
}

// TestNewRejectsDuplicateLocalNeighbor: the slot rows hold one local link
// per ordered router pair, so a machine listing a neighbor twice fails
// fabric construction instead of silently leaving a link unused.
func TestNewRejectsDuplicateLocalNeighbor(t *testing.T) {
	_, err := New(des.New(), doubledNeighbor{topotest.Mini(t)}, DefaultParams(), routing.Minimal, des.NewRNG(1, "dup"))
	if err == nil {
		t.Fatal("fabric accepted a router listing one local neighbor twice")
	}
}
