package trace

import (
	"testing"

	"dragonfly/internal/topology"
)

// TestAppCatalogPinned pins every (application, size) entry of the catalog
// to the content digest of the workload it builds, and requires its ranks
// to fit the size's machine: Theta for Paper, the quick-scale machine for
// Quick, the mini machine for Mini. The digests are the farm's workload
// identity, so an entry that drifts orphans every banked cell that ran it;
// no golden report covers the Mini sizes, which only this test pins.
func TestAppCatalogPinned(t *testing.T) {
	sizes := [numSizes]string{Paper: "paper", Quick: "quick", Mini: "mini"}
	machines := [numSizes]topology.Config{Paper: topology.Theta(), Quick: topology.Quick(), Mini: topology.Mini()}
	want := map[string][numSizes]uint64{
		"CR":     {0xcace2f1eeb7d0999, 0x44012059496a7d80, 0x7b15ec6d0ea0f2e0},
		"FB":     {0x31d206684be89a47, 0x1594bac1bfbf3bbb, 0xf79188a9a800e755},
		"AMG":    {0x2eacf83de50ca532, 0x42c85f3259b6e15c, 0x37f0ab3a6f9d6924},
		"RING":   {0x31d046df24861450, 0x01e0ad5cddb58b6b, 0xb7342921407dee5b},
		"TREE":   {0x829965102da6bf72, 0xd9456d9963d25d89, 0xdd1d5f4a71d17f99},
		"MOE":    {0x336377ae7717c910, 0x482ff95eb70e7de0, 0x7eecc52db3525e20},
		"HALO2D": {0x5c6f38553419a24e, 0xef6812c39d8079e9, 0xc30cd69fd8c4ca79},
		"HALO3D": {0x86ef8a3647d5bc16, 0x185ba13a1b4d05a0, 0xd99457bc526b4ac5},
		"CKPT":   {0x7074a6923e9095bf, 0xcc0770f28429107f, 0x7def00165c31f29b},
	}
	if len(want) != len(Apps()) {
		t.Fatalf("%d pinned applications for a catalog of %d", len(want), len(Apps()))
	}
	for _, name := range Apps() {
		for size := Paper; size < numSizes; size++ {
			tr, g, err := BuildApp(name, size)
			if err != nil {
				t.Fatalf("%s at %s size: %v", name, sizes[size], err)
			}
			var digest uint64
			var ranks int
			if g != nil {
				digest, ranks = g.Digest(), g.NumRanks()
			} else {
				digest, ranks = tr.Digest(), tr.NumRanks()
			}
			if digest != want[name][size] {
				t.Errorf("%s at %s size: digest %#016x, want %#016x", name, sizes[size], digest, want[name][size])
			}
			if nodes := topology.MustNew(machines[size]).NumNodes(); ranks > nodes {
				t.Errorf("%s at %s size: %d ranks on a %d-node machine", name, sizes[size], ranks, nodes)
			}
		}
	}
}
