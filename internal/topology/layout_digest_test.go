package topology

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// layoutCase is one machine shape of the layout digest: a config, its
// global ports per port-owning router (GlobalPeer's port range), and the
// pinned digest of every query the machine answers.
type layoutCase struct {
	name   string
	m      Machine
	ports  int
	digest string
}

// layoutCases covers the four presets plus two irregular shapes: an XC40
// machine with a partial trailing cabinet (5 rows in cabinets of 2) and 15
// ports per group over 4 peer groups (not divisible), and a Dragonfly+
// machine with a partial chassis (7 leaves in chassis of 3), a partial
// cabinet (3 chassis in cabinets of 2) and 6 ports over 4 peers.
var layoutCases = []layoutCase{
	{"theta", Theta(), 10, "37a612f46f7d46eca52681c119568b0613bc89b61d37dbf6e0a3bcb16ab12018"},
	{"mini", Mini(), 3, "4d687bdd658da4e5c585c3014fc2a1a53f86a4fae09ca4d6852eb0647579ccfe"},
	{"dfplus", Plus(), 2, "bf0bca093a7f09a9ad68c878ea98c4e7ae35919b79236d51e05934391a5ec158"},
	{"dfplus-mini", PlusMini(), 3, "63a2401b523d307575416c912da2841a6d4ba318eb9d69640eae8fffa6ef5a76"},
	{"xc40-irregular", Config{Groups: 5, Rows: 5, Cols: 3, NodesPerRouter: 2, GlobalPortsPerRouter: 1, ChassisPerCabinet: 2}, 1, "8dff3ec015145e90ce7d147ce5d7fbf0c75171da23b43ef5e2013a07f6212446"},
	{"dfplus-irregular", PlusConfig{Groups: 5, Leaves: 7, Spines: 3, NodesPerLeaf: 3, GlobalPortsPerSpine: 2, LeavesPerChassis: 3, ChassisPerCabinet: 2}, 2, "dfe8b8fb01d4f350da64bd01941697515a4adc21fd0bc2f597cd0d43f98960e2"},
}

// layoutDigest hashes every answer of ic's layout and wiring queries: the
// counts, node attachment of every node and router, every chassis and
// cabinet, the Valiant list, the global wiring (GlobalConns, Gateways of
// every group pair, GlobalPeer of every router port, sampled
// GlobalConnected), every router's local neighbors, sampled minimal hop
// counts and Describe.
func layoutDigest(t *testing.T, ic Interconnect, ports int) string {
	t.Helper()
	h := sha256.New()
	w := func(format string, args ...interface{}) { fmt.Fprintf(h, format, args...) }
	w("%s groups=%d routers=%d nodes=%d npr=%d chassis=%d cabinets=%d valiant=%d\n",
		ic.Name(), ic.NumGroups(), ic.NumRouters(), ic.NumNodes(), ic.NodesPerRouter(),
		ic.ChassisCount(), ic.CabinetCount(), ic.NumValiantRouters())
	for n := NodeID(0); int(n) < ic.NumNodes(); n++ {
		w("n%d r%d g%d\n", n, ic.RouterOfNode(n), ic.GroupOfNode(n))
	}
	peers, ok := ic.(interface {
		GlobalPeer(r RouterID, p int) (RouterID, int, bool)
	})
	if !ok {
		t.Fatalf("%T has no GlobalPeer", ic)
	}
	for r := RouterID(0); int(r) < ic.NumRouters(); r++ {
		w("r%d g%d nodes%v local%v", r, ic.GroupOfRouter(r), ic.NodesOfRouter(r), ic.LocalNeighbors(r))
		for p := 0; p < ports; p++ {
			peer, peerPort, wired := peers.GlobalPeer(r, p)
			w(" p%d:%d/%d/%v", p, peer, peerPort, wired)
		}
		w("\n")
	}
	for ch := 0; ch < ic.ChassisCount(); ch++ {
		w("chassis%d %v\n", ch, ic.RoutersInChassis(ch))
	}
	for cab := 0; cab < ic.CabinetCount(); cab++ {
		w("cabinet%d %v\n", cab, ic.RoutersInCabinet(cab))
	}
	for i := 0; i < ic.NumValiantRouters(); i++ {
		w("v%d %d\n", i, ic.ValiantRouter(i))
	}
	w("conns %v\n", ic.GlobalConns())
	for a := 0; a < ic.NumGroups(); a++ {
		for b := 0; b < ic.NumGroups(); b++ {
			w("gw%d-%d %v\n", a, b, ic.Gateways(a, b))
		}
	}
	routers, nodes := ic.NumRouters(), ic.NumNodes()
	for i := 0; i < 4096; i++ {
		a, b := RouterID(i*7919%routers), RouterID((i*104729+13)%routers)
		w("gc%d-%d %v\n", a, b, ic.GlobalConnected(a, b))
	}
	if nodes*nodes <= 1<<16 {
		for s := NodeID(0); int(s) < nodes; s++ {
			for d := NodeID(0); int(d) < nodes; d++ {
				w("h%d-%d %d\n", s, d, ic.MinimalRouterHops(s, d))
			}
		}
	} else {
		for i := 0; i < 4096; i++ {
			s, d := NodeID(i*7919%nodes), NodeID((i*104729+13)%nodes)
			w("h%d-%d %d\n", s, d, ic.MinimalRouterHops(s, d))
		}
	}
	w("%s", ic.Describe())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestLayoutDigestPinned pins every layout and wiring query of the presets
// and of two irregular shapes, so a change to how machines number, attach,
// group or wire their routers cannot pass unnoticed.
func TestLayoutDigestPinned(t *testing.T) {
	for _, tc := range layoutCases {
		t.Run(tc.name, func(t *testing.T) {
			ic, err := tc.m.Build()
			if err != nil {
				t.Fatal(err)
			}
			if got := layoutDigest(t, ic, tc.ports); got != tc.digest {
				t.Errorf("layout digest = %s, want %s", got, tc.digest)
			}
		})
	}
}
