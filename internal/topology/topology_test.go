package topology

import (
	"testing"
	"testing/quick"
)

func TestThetaDimensions(t *testing.T) {
	top := MustNew(Theta())
	if got := top.NumGroups(); got != 9 {
		t.Errorf("groups = %d, want 9", got)
	}
	if got := top.RoutersPerGroup(); got != 96 {
		t.Errorf("routers/group = %d, want 96", got)
	}
	if got := top.NumRouters(); got != 864 {
		t.Errorf("routers = %d, want 864", got)
	}
	if got := top.NumNodes(); got != 3456 {
		t.Errorf("nodes = %d, want 3456", got)
	}
	if got := top.ChassisCount(); got != 54 {
		t.Errorf("chassis = %d, want 54 (9 groups x 6 rows)", got)
	}
	if got := top.CabinetCount(); got != 18 {
		t.Errorf("cabinets = %d, want 18 (2 per group)", got)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{},
		{Groups: 0, Rows: 1, Cols: 1, NodesPerRouter: 1, ChassisPerCabinet: 1},
		{Groups: 2, Rows: 0, Cols: 1, NodesPerRouter: 1, ChassisPerCabinet: 1},
		{Groups: 2, Rows: 1, Cols: 0, NodesPerRouter: 1, ChassisPerCabinet: 1},
		{Groups: 2, Rows: 1, Cols: 1, NodesPerRouter: 0, ChassisPerCabinet: 1},
		{Groups: 2, Rows: 1, Cols: 1, NodesPerRouter: 1, ChassisPerCabinet: 0},
		{Groups: 2, Rows: 1, Cols: 1, NodesPerRouter: 1, ChassisPerCabinet: 1, GlobalPortsPerRouter: 0},
		{Groups: 2, Rows: 1, Cols: 1, NodesPerRouter: 1, ChassisPerCabinet: 1, GlobalPortsPerRouter: -1},
		// 2 global ports per group cannot reach 9 other groups: round-robin
		// wiring would leave 84 of the 90 ordered group pairs unconnected.
		{Groups: 10, Rows: 1, Cols: 2, NodesPerRouter: 2, GlobalPortsPerRouter: 1, ChassisPerCabinet: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) succeeded, want error", i, cfg)
		}
	}
	if _, err := New(Config{Groups: 1, Rows: 2, Cols: 2, NodesPerRouter: 1, ChassisPerCabinet: 1}); err != nil {
		t.Errorf("single-group machine rejected: %v", err)
	}
}

func TestCoordRoundTrip(t *testing.T) {
	top := MustNew(Mini())
	for r := RouterID(0); int(r) < top.NumRouters(); r++ {
		c := top.RouterCoord(r)
		if got := top.RouterAt(c.Group, c.Row, c.Col); got != r {
			t.Fatalf("RouterAt(RouterCoord(%d)) = %d", r, got)
		}
		if got := top.GroupOfRouter(r); got != c.Group {
			t.Fatalf("GroupOfRouter(%d) = %d, want %d", r, got, c.Group)
		}
	}
}

func TestNodeRouterRoundTrip(t *testing.T) {
	top := MustNew(Mini())
	for n := NodeID(0); int(n) < top.NumNodes(); n++ {
		r := top.RouterOfNode(n)
		s := top.NodeSlot(n)
		if got := top.NodeAt(r, s); got != n {
			t.Fatalf("NodeAt(RouterOfNode(%d), slot) = %d", n, got)
		}
	}
	r := RouterID(3)
	nodes := top.NodesOfRouter(r)
	if len(nodes) != top.Config().NodesPerRouter {
		t.Fatalf("NodesOfRouter len = %d", len(nodes))
	}
	for _, n := range nodes {
		if top.RouterOfNode(n) != r {
			t.Fatalf("node %d not attached to router %d", n, r)
		}
	}
}

func TestChassisAndCabinetMembership(t *testing.T) {
	top := MustNew(Theta())
	seen := map[RouterID]bool{}
	for ch := 0; ch < top.ChassisCount(); ch++ {
		rs := top.RoutersInChassis(ch)
		if len(rs) != 16 {
			t.Fatalf("chassis %d has %d routers, want 16", ch, len(rs))
		}
		for _, r := range rs {
			if top.ChassisOfRouter(r) != ch {
				t.Fatalf("router %d: ChassisOfRouter = %d, want %d", r, top.ChassisOfRouter(r), ch)
			}
			if seen[r] {
				t.Fatalf("router %d in two chassis", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != top.NumRouters() {
		t.Fatalf("chassis cover %d routers, want %d", len(seen), top.NumRouters())
	}

	seen = map[RouterID]bool{}
	for cab := 0; cab < top.CabinetCount(); cab++ {
		rs := top.RoutersInCabinet(cab)
		if len(rs) != 48 {
			t.Fatalf("cabinet %d has %d routers, want 48 (3 chassis x 16)", cab, len(rs))
		}
		for _, r := range rs {
			if top.CabinetOfRouter(r) != cab {
				t.Fatalf("router %d: CabinetOfRouter = %d, want %d", r, top.CabinetOfRouter(r), cab)
			}
			if seen[r] {
				t.Fatalf("router %d in two cabinets", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != top.NumRouters() {
		t.Fatalf("cabinets cover %d routers, want %d", len(seen), top.NumRouters())
	}
}

func TestPartialCabinet(t *testing.T) {
	cfg := Config{Groups: 2, Rows: 5, Cols: 2, NodesPerRouter: 1, GlobalPortsPerRouter: 2, ChassisPerCabinet: 3}
	top := MustNew(cfg)
	if got := top.CabinetsPerGroup(); got != 2 {
		t.Fatalf("CabinetsPerGroup = %d, want 2 (3+2 rows)", got)
	}
	// Last cabinet of group 0 holds rows 3..4 => 2 rows * 2 cols = 4 routers.
	if got := len(top.RoutersInCabinet(1)); got != 4 {
		t.Fatalf("partial cabinet has %d routers, want 4", got)
	}
}

func TestLocalNeighborsTheta(t *testing.T) {
	top := MustNew(Theta())
	r := top.RouterAt(4, 3, 7)
	nbrs := top.LocalNeighbors(r)
	if len(nbrs) != 15+5 {
		t.Fatalf("local degree = %d, want 20", len(nbrs))
	}
	for _, nb := range nbrs {
		if !top.LocalConnected(r, nb) {
			t.Fatalf("neighbor %d not LocalConnected", nb)
		}
		if top.GroupOfRouter(nb) != 4 {
			t.Fatalf("neighbor %d escaped the group", nb)
		}
	}
	if top.LocalConnected(r, r) {
		t.Fatal("router connected to itself")
	}
}

func TestLocalDistance(t *testing.T) {
	top := MustNew(Theta())
	a := top.RouterAt(0, 2, 5)
	if d := top.LocalDistance(a, a); d != 0 {
		t.Errorf("self distance = %d", d)
	}
	if d := top.LocalDistance(a, top.RouterAt(0, 2, 9)); d != 1 {
		t.Errorf("same-row distance = %d, want 1", d)
	}
	if d := top.LocalDistance(a, top.RouterAt(0, 5, 5)); d != 1 {
		t.Errorf("same-col distance = %d, want 1", d)
	}
	if d := top.LocalDistance(a, top.RouterAt(0, 4, 11)); d != 2 {
		t.Errorf("diagonal distance = %d, want 2", d)
	}
}

func TestLocalDistancePanicsAcrossGroups(t *testing.T) {
	top := MustNew(Mini())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	top.LocalDistance(top.RouterAt(0, 0, 0), top.RouterAt(1, 0, 0))
}

func TestGlobalWiringSymmetric(t *testing.T) {
	for _, cfg := range []Config{Mini(), Theta()} {
		top := MustNew(cfg)
		g := cfg.GlobalPortsPerRouter
		for r := RouterID(0); int(r) < top.NumRouters(); r++ {
			for p := 0; p < g; p++ {
				peer, pport, ok := top.GlobalPeer(r, p)
				if !ok {
					continue
				}
				back, bport, ok2 := top.GlobalPeer(peer, pport)
				if !ok2 || back != r || bport != p {
					t.Fatalf("asymmetric wiring: %d:%d -> %d:%d -> %d:%d", r, p, peer, pport, back, bport)
				}
				if top.GroupOfRouter(peer) == top.GroupOfRouter(r) {
					t.Fatalf("global link inside one group: %d -> %d", r, peer)
				}
			}
		}
	}
}

func TestGlobalWiringFullyWiredWhenDivisible(t *testing.T) {
	// Theta: 96 routers x 10 ports = 960 ports, 8 other groups -> divisible.
	top := MustNew(Theta())
	g := top.Config().GlobalPortsPerRouter
	for r := RouterID(0); int(r) < top.NumRouters(); r++ {
		for p := 0; p < g; p++ {
			if _, _, ok := top.GlobalPeer(r, p); !ok {
				t.Fatalf("unwired port %d:%d on an evenly divisible machine", r, p)
			}
		}
	}
	// 120 parallel links per group pair.
	for a := 0; a < 9; a++ {
		for b := 0; b < 9; b++ {
			if a == b {
				continue
			}
			if got := len(top.Gateways(a, b)); got != 120 {
				t.Fatalf("gateways(%d,%d) = %d, want 120", a, b, got)
			}
		}
	}
}

func TestGatewaysLandInTargetGroup(t *testing.T) {
	top := MustNew(Mini())
	for a := 0; a < top.NumGroups(); a++ {
		for b := 0; b < top.NumGroups(); b++ {
			if a == b {
				if len(top.Gateways(a, b)) != 0 {
					t.Fatalf("self gateways for group %d", a)
				}
				continue
			}
			gws := top.Gateways(a, b)
			if len(gws) == 0 {
				t.Fatalf("groups %d and %d not connected", a, b)
			}
			for _, gw := range gws {
				if top.GroupOfRouter(gw.Router) != a {
					t.Fatalf("gateway router %d not in source group %d", gw.Router, a)
				}
				peer, _, ok := top.GlobalPeer(gw.Router, gw.Port)
				if !ok || top.GroupOfRouter(peer) != b {
					t.Fatalf("gateway %v does not land in group %d", gw, b)
				}
			}
		}
	}
}

func TestGlobalConnsCountTheta(t *testing.T) {
	top := MustNew(Theta())
	conns := top.GlobalConns()
	// 864 routers x 10 ports / 2 ends = 4320 bidirectional links.
	if len(conns) != 4320 {
		t.Fatalf("GlobalConns = %d, want 4320", len(conns))
	}
	seen := map[[2]int64]bool{}
	for _, c := range conns {
		k := [2]int64{int64(c.A)<<32 | int64(c.APort), int64(c.B)<<32 | int64(c.BPort)}
		if seen[k] {
			t.Fatal("duplicate link in GlobalConns")
		}
		seen[k] = true
	}
}

func TestMinimalRouterHops(t *testing.T) {
	top := MustNew(Theta())
	// Same router.
	n0, n1 := top.NodeAt(0, 0), top.NodeAt(0, 1)
	if h := top.MinimalRouterHops(n0, n1); h != 1 {
		t.Errorf("same-router hops = %d, want 1", h)
	}
	// Same row.
	a := top.NodeAt(top.RouterAt(0, 0, 0), 0)
	b := top.NodeAt(top.RouterAt(0, 0, 5), 0)
	if h := top.MinimalRouterHops(a, b); h != 2 {
		t.Errorf("same-row hops = %d, want 2", h)
	}
	// Diagonal in group.
	c := top.NodeAt(top.RouterAt(0, 3, 5), 0)
	if h := top.MinimalRouterHops(a, c); h != 3 {
		t.Errorf("diagonal hops = %d, want 3", h)
	}
	// Inter-group: bounded by 6 and at least 2 (src router, dst router).
	d := top.NodeAt(top.RouterAt(7, 3, 5), 0)
	h := top.MinimalRouterHops(a, d)
	if h < 2 || h > 6 {
		t.Errorf("inter-group hops = %d, want within [2,6]", h)
	}
}

// Property: minimal hops is symmetric and within the dragonfly diameter.
func TestMinimalHopsProperties(t *testing.T) {
	top := MustNew(Mini())
	n := top.NumNodes()
	f := func(x, y uint16) bool {
		a := NodeID(int(x) % n)
		b := NodeID(int(y) % n)
		h1 := top.MinimalRouterHops(a, b)
		h2 := top.MinimalRouterHops(b, a)
		return h1 == h2 && h1 >= 1 && h1 <= 6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribeMentionsInventory(t *testing.T) {
	top := MustNew(Theta())
	s := top.Describe()
	for _, want := range []string{"9 groups", "864 routers", "3456 nodes", "120 per group pair"} {
		if !contains(s, want) {
			t.Errorf("Describe() missing %q in:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
