package topology

import (
	"fmt"
	"testing"
)

// fuzzMachine derives a small XC40 or Dragonfly+ shape from raw fuzz bytes,
// the way the routing fuzzers do, but with the global ports drawn freely
// (0-3 per port-owning router) so under-wired shapes occur too: 1-8 groups,
// 1-4 x 1-5 grids or 1-5 leaves x 1-3 spines, 1-4 nodes per router, chassis
// and cabinet sizes that leave partial trailing units.
func fuzzMachine(family, groups, rows, cols, nodesPer, ports, chassis, cabinet uint8) (Machine, layout) {
	if family%2 == 0 {
		c := Config{
			Groups:               1 + int(groups)%8,
			Rows:                 1 + int(rows)%4,
			Cols:                 1 + int(cols)%5,
			NodesPerRouter:       1 + int(nodesPer)%4,
			GlobalPortsPerRouter: int(ports) % 4,
			ChassisPerCabinet:    1 + int(cabinet)%3,
		}
		return c, c.layout()
	}
	c := PlusConfig{
		Groups:              1 + int(groups)%8,
		Leaves:              1 + int(rows)%5,
		Spines:              1 + int(cols)%3,
		NodesPerLeaf:        1 + int(nodesPer)%4,
		GlobalPortsPerSpine: int(ports) % 4,
		LeavesPerChassis:    1 + int(chassis)%3,
		ChassisPerCabinet:   1 + int(cabinet)%3,
	}
	return c, c.layout()
}

// FuzzLayout: for arbitrary XC40 and Dragonfly+ shapes, Validate accepts a
// shape exactly when its round-robin wiring joins every group pair, and
// every accepted machine keeps the layout's SPI contract — group-major
// numbering, RouterOfNode monotone and inverting NodeAt, NodesOfRouter
// partitioning the nodes, chassis partitioning the node-holding routers
// (which are the Valiant set) and cabinets partitioning the chassis, and
// every GlobalConn listed in Gateways of its group pair, both ways.
func FuzzLayout(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(1), uint8(3), uint8(1), uint8(3), uint8(0), uint8(0)) // mini
	f.Add(uint8(1), uint8(4), uint8(2), uint8(0), uint8(3), uint8(3), uint8(1), uint8(1)) // 5 groups, 3 leaves x 1 spine
	f.Add(uint8(0), uint8(4), uint8(0), uint8(2), uint8(1), uint8(1), uint8(0), uint8(1)) // XC40 1x3, 5 groups, non-divisible
	f.Add(uint8(1), uint8(4), uint8(1), uint8(2), uint8(2), uint8(2), uint8(2), uint8(1)) // partial chassis and cabinet
	f.Add(uint8(0), uint8(9), uint8(0), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0)) // 10 groups x 2 routers x 1 port: under-wired
	f.Add(uint8(1), uint8(9), uint8(1), uint8(0), uint8(1), uint8(1), uint8(0), uint8(0)) // 10 groups, 1 spine x 1 port: under-wired
	f.Add(uint8(0), uint8(0), uint8(3), uint8(4), uint8(3), uint8(0), uint8(0), uint8(2)) // one group, no ports
	f.Add(uint8(1), uint8(7), uint8(4), uint8(2), uint8(0), uint8(3), uint8(1), uint8(2)) // 8 groups, 5 leaves x 3 spines
	f.Fuzz(func(t *testing.T, family, groups, rows, cols, nodesPer, ports, chassis, cabinet uint8) {
		m, l := fuzzMachine(family, groups, rows, cols, nodesPer, ports, chassis, cabinet)
		l.wire(nil)
		connected := true
		for a := 0; a < l.groups; a++ {
			for b := 0; b < l.groups; b++ {
				if a != b && len(l.gateways[a][b]) == 0 {
					connected = false
				}
			}
		}
		err := m.(interface{ Validate() error }).Validate()
		if (err == nil) != connected {
			t.Fatalf("%s: Validate() = %v, but every group pair connected = %v", m.CanonicalSpec(), err, connected)
		}
		if err != nil {
			return
		}
		ic := BuildMachine(m)
		if err := checkLayoutContract(ic); err != nil {
			t.Fatalf("%s: %v", m.CanonicalSpec(), err)
		}
	})
}

// checkLayoutContract checks the structural SPI contract the shared layout
// owns for both families.
func checkLayoutContract(ic Interconnect) error {
	slots := ic.(interface {
		NodeAt(r RouterID, slot int) NodeID
		NodeSlot(n NodeID) int
	})
	groups, routers, nodes := ic.NumGroups(), ic.NumRouters(), ic.NumNodes()
	if routers%groups != 0 {
		return fmt.Errorf("%d routers do not split into %d groups", routers, groups)
	}
	for r := RouterID(0); int(r) < routers; r++ {
		if g := ic.GroupOfRouter(r); g != int(r)/(routers/groups) {
			return fmt.Errorf("router %d in group %d: numbering not group-major", r, g)
		}
	}
	for n := NodeID(0); int(n) < nodes; n++ {
		r := ic.RouterOfNode(n)
		if n > 0 && r < ic.RouterOfNode(n-1) {
			return fmt.Errorf("RouterOfNode not monotone at node %d", n)
		}
		if got := slots.NodeAt(r, slots.NodeSlot(n)); got != n {
			return fmt.Errorf("NodeAt(RouterOfNode(%d), NodeSlot) = %d", n, got)
		}
		if ic.GroupOfNode(n) != ic.GroupOfRouter(r) {
			return fmt.Errorf("node %d: GroupOfNode disagrees with its router", n)
		}
	}

	var holders []RouterID
	seenNode := make([]bool, nodes)
	for r := RouterID(0); int(r) < routers; r++ {
		ns := ic.NodesOfRouter(r)
		if len(ns) == 0 {
			continue
		}
		holders = append(holders, r)
		if len(ns) != ic.NodesPerRouter() {
			return fmt.Errorf("router %d holds %d nodes, want %d", r, len(ns), ic.NodesPerRouter())
		}
		for _, n := range ns {
			if int(n) < 0 || int(n) >= nodes || seenNode[n] || ic.RouterOfNode(n) != r {
				return fmt.Errorf("router %d: node %d out of range, repeated or attached elsewhere", r, n)
			}
			seenNode[n] = true
		}
	}
	if len(holders)*ic.NodesPerRouter() != nodes {
		return fmt.Errorf("NodesOfRouter covers %d of %d nodes", len(holders)*ic.NodesPerRouter(), nodes)
	}
	if ic.NumValiantRouters() != len(holders) {
		return fmt.Errorf("%d Valiant routers, %d node-holding routers", ic.NumValiantRouters(), len(holders))
	}
	for i, r := range holders {
		if v := ic.ValiantRouter(i); v != r {
			return fmt.Errorf("ValiantRouter(%d) = %d, want node-holding router %d", i, v, r)
		}
	}

	var inChassis []RouterID
	for ch := 0; ch < ic.ChassisCount(); ch++ {
		rs := ic.RoutersInChassis(ch)
		if len(rs) == 0 {
			return fmt.Errorf("chassis %d is empty", ch)
		}
		inChassis = append(inChassis, rs...)
	}
	if fmt.Sprint(inChassis) != fmt.Sprint(holders) {
		return fmt.Errorf("chassis cover %v, node-holding routers are %v", inChassis, holders)
	}
	ch := 0
	for cab := 0; cab < ic.CabinetCount(); cab++ {
		rs := ic.RoutersInCabinet(cab)
		if len(rs) == 0 || ic.GroupOfRouter(rs[0]) != ic.GroupOfRouter(rs[len(rs)-1]) {
			return fmt.Errorf("cabinet %d is empty or spans groups: %v", cab, rs)
		}
		for len(rs) > 0 {
			if ch == ic.ChassisCount() {
				return fmt.Errorf("cabinet %d runs past the last chassis", cab)
			}
			c := ic.RoutersInChassis(ch)
			if len(c) > len(rs) || fmt.Sprint(rs[:len(c)]) != fmt.Sprint(c) {
				return fmt.Errorf("cabinet %d does not hold whole chassis: next is %d %v, cabinet has %v", cab, ch, c, rs)
			}
			rs = rs[len(c):]
			ch++
		}
	}
	if ch != ic.ChassisCount() {
		return fmt.Errorf("cabinets hold %d of %d chassis", ch, ic.ChassisCount())
	}

	hasGateway := func(src, dst int, want Gateway) bool {
		for _, gw := range ic.Gateways(src, dst) {
			if gw == want {
				return true
			}
		}
		return false
	}
	conns := ic.GlobalConns()
	for _, c := range conns {
		ga, gb := ic.GroupOfRouter(c.A), ic.GroupOfRouter(c.B)
		if !hasGateway(ga, gb, Gateway{Router: c.A, Port: c.APort, Peer: c.B}) ||
			!hasGateway(gb, ga, Gateway{Router: c.B, Port: c.BPort, Peer: c.A}) {
			return fmt.Errorf("global link %+v missing from Gateways(%d,%d) or (%d,%d)", c, ga, gb, gb, ga)
		}
	}
	total := 0
	for a := 0; a < groups; a++ {
		for b := 0; b < groups; b++ {
			total += len(ic.Gateways(a, b))
		}
	}
	if total != 2*len(conns) {
		return fmt.Errorf("Gateways list %d link ends, GlobalConns %d links", total, len(conns))
	}
	return nil
}
