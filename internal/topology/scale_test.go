package topology

import (
	"testing"

	"dragonfly/internal/par"
)

// TestWiringWorkerCountInvariance: the sharded round-robin wiring must
// produce byte-identical machines at every worker count.
func TestWiringWorkerCountInvariance(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	base := MustNew(Mini())
	for _, w := range []int{2, 3, 8} {
		par.SetWorkers(w)
		got := MustNew(Mini())
		if len(got.globalPeer) != len(base.globalPeer) {
			t.Fatalf("workers=%d: peer table length %d != %d", w, len(got.globalPeer), len(base.globalPeer))
		}
		for i := range base.globalPeer {
			if got.globalPeer[i] != base.globalPeer[i] || got.globalPeerPort[i] != base.globalPeerPort[i] {
				t.Fatalf("workers=%d: port slot %d differs", w, i)
			}
		}
		for a := range base.gateways {
			for b := range base.gateways[a] {
				bg, gg := base.gateways[a][b], got.gateways[a][b]
				if len(bg) != len(gg) {
					t.Fatalf("workers=%d: gateways[%d][%d] length %d != %d", w, a, b, len(gg), len(bg))
				}
				for s := range bg {
					if bg[s] != gg[s] {
						t.Fatalf("workers=%d: gateways[%d][%d][%d] differs", w, a, b, s)
					}
				}
			}
		}
	}
}

// TestScaleConfigShapes: synthesized shapes must validate, meet the router
// floor, and keep every group pair connected (the SPI's Gateways contract).
func TestScaleConfigShapes(t *testing.T) {
	for _, tc := range []struct {
		family  string
		routers int
	}{
		{"df", 2000}, {"df", 20000}, {"dfplus", 2000}, {"dfplus", 20000},
	} {
		m, err := ScaleConfig(tc.family, tc.routers)
		if err != nil {
			t.Fatal(err)
		}
		ic, err := m.Build()
		if err != nil {
			t.Fatalf("%s:%d: %v", tc.family, tc.routers, err)
		}
		if ic.NumRouters() < tc.routers {
			t.Fatalf("%s:%d: only %d routers", tc.family, tc.routers, ic.NumRouters())
		}
		g := ic.NumGroups()
		// Sampled group pairs (corners and a stride) all need gateways.
		for _, a := range []int{0, 1, g / 2, g - 1} {
			for _, b := range []int{0, g / 3, g - 1} {
				if a == b {
					continue
				}
				if len(ic.Gateways(a, b)) == 0 {
					t.Fatalf("%s:%d: no gateways %d -> %d", tc.family, tc.routers, a, b)
				}
			}
		}
	}
	if _, err := ScaleConfig("torus", 100); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := ScaleConfig("df", 0); err == nil {
		t.Fatal("zero routers accepted")
	}
}
