package topotest

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"dragonfly/internal/topology"
)

// LayoutDigest hashes every answer of ic's layout and wiring queries: the
// counts, node attachment of every node and router, every chassis and
// cabinet, the Valiant list, the global wiring (GlobalConns, Gateways of
// every group pair, GlobalPeer of every router port, sampled
// GlobalConnected), every router's local neighbors, sampled minimal hop
// counts and Describe. Two machines that digest alike answer every layout
// query alike.
func LayoutDigest(tb testing.TB, ic topology.Interconnect) string {
	tb.Helper()
	var ports int // global ports of each port-owning router
	switch m := ic.(type) {
	case *topology.Dragonfly:
		ports = m.Config().GlobalPortsPerRouter
	case *topology.DragonflyPlus:
		ports = m.Config().GlobalPortsPerSpine
	default:
		tb.Fatalf("topotest: no port count for %T", ic)
	}
	h := sha256.New()
	w := func(format string, args ...interface{}) { fmt.Fprintf(h, format, args...) }
	w("%s groups=%d routers=%d nodes=%d npr=%d chassis=%d cabinets=%d valiant=%d\n",
		ic.Name(), ic.NumGroups(), ic.NumRouters(), ic.NumNodes(), ic.NodesPerRouter(),
		ic.ChassisCount(), ic.CabinetCount(), ic.NumValiantRouters())
	for n := topology.NodeID(0); int(n) < ic.NumNodes(); n++ {
		w("n%d r%d g%d\n", n, ic.RouterOfNode(n), ic.GroupOfNode(n))
	}
	peers := ic.(interface {
		GlobalPeer(r topology.RouterID, p int) (topology.RouterID, int, bool)
	})
	for r := topology.RouterID(0); int(r) < ic.NumRouters(); r++ {
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
		a, b := topology.RouterID(i*7919%routers), topology.RouterID((i*104729+13)%routers)
		w("gc%d-%d %v\n", a, b, ic.GlobalConnected(a, b))
	}
	if nodes*nodes <= 1<<16 {
		for s := topology.NodeID(0); int(s) < nodes; s++ {
			for d := topology.NodeID(0); int(d) < nodes; d++ {
				w("h%d-%d %d\n", s, d, ic.MinimalRouterHops(s, d))
			}
		}
	} else {
		for i := 0; i < 4096; i++ {
			s, d := topology.NodeID(i*7919%nodes), topology.NodeID((i*104729+13)%nodes)
			w("h%d-%d %d\n", s, d, ic.MinimalRouterHops(s, d))
		}
	}
	w("%s", ic.Describe())
	return fmt.Sprintf("%x", h.Sum(nil))
}
