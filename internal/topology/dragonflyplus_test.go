package topology

import (
	"testing"
)

func plusMini(t *testing.T) *DragonflyPlus {
	t.Helper()
	return MustNewPlus(PlusMini())
}

func TestPlusCounts(t *testing.T) {
	tp := plusMini(t)
	c := tp.Config()
	wantRouters := c.Groups * (c.Leaves + c.Spines)
	if got := tp.NumRouters(); got != wantRouters {
		t.Fatalf("NumRouters = %d, want %d", got, wantRouters)
	}
	wantNodes := c.Groups * c.Leaves * c.NodesPerLeaf
	if got := tp.NumNodes(); got != wantNodes {
		t.Fatalf("NumNodes = %d, want %d", got, wantNodes)
	}
	if got := tp.NumNodes(); got != 160 {
		t.Fatalf("PlusMini nodes = %d, want 160 (quick-scale machine size)", got)
	}
}

func TestPlusNodeAttachment(t *testing.T) {
	tp := plusMini(t)
	seen := map[NodeID]bool{}
	for r := RouterID(0); int(r) < tp.NumRouters(); r++ {
		nodes := tp.NodesOfRouter(r)
		if !tp.IsLeaf(r) {
			if len(nodes) != 0 {
				t.Fatalf("spine %d owns nodes %v", r, nodes)
			}
			continue
		}
		if len(nodes) != tp.Config().NodesPerLeaf {
			t.Fatalf("leaf %d owns %d nodes", r, len(nodes))
		}
		for slot, n := range nodes {
			if seen[n] {
				t.Fatalf("node %d attached twice", n)
			}
			seen[n] = true
			if got := tp.RouterOfNode(n); got != r {
				t.Fatalf("RouterOfNode(%d) = %d, want %d", n, got, r)
			}
			if got := tp.NodeSlot(n); got != slot {
				t.Fatalf("NodeSlot(%d) = %d, want %d", n, got, slot)
			}
		}
	}
	if len(seen) != tp.NumNodes() {
		t.Fatalf("attached %d nodes, want %d", len(seen), tp.NumNodes())
	}
	// RouterOfNode must be monotone: consecutive nodes on the same or a later
	// router, so contiguous allocations stay physically adjacent.
	for n := NodeID(1); int(n) < tp.NumNodes(); n++ {
		if tp.RouterOfNode(n) < tp.RouterOfNode(n-1) {
			t.Fatalf("RouterOfNode not monotone at node %d", n)
		}
	}
}

func TestPlusBipartiteLocal(t *testing.T) {
	tp := plusMini(t)
	for a := RouterID(0); int(a) < tp.NumRouters(); a++ {
		for b := RouterID(0); int(b) < tp.NumRouters(); b++ {
			want := a != b && tp.GroupOfRouter(a) == tp.GroupOfRouter(b) &&
				tp.IsLeaf(a) != tp.IsLeaf(b)
			if got := tp.LocalConnected(a, b); got != want {
				t.Fatalf("LocalConnected(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
		wantDeg := tp.Config().Spines
		if !tp.IsLeaf(a) {
			wantDeg = tp.Config().Leaves
		}
		if got := len(tp.LocalNeighbors(a)); got != wantDeg {
			t.Fatalf("router %d local degree %d, want %d", a, got, wantDeg)
		}
	}
}

func TestPlusLocalNextHopReachesDst(t *testing.T) {
	tp := plusMini(t)
	rpg := tp.Config().RoutersPerGroup()
	for a := 0; a < rpg; a++ {
		for b := 0; b < rpg; b++ {
			cur, dst := RouterID(a), RouterID(b)
			hops := 0
			for cur != dst {
				next := tp.LocalNextHop(cur, dst)
				if next != dst && !tp.LocalConnected(cur, next) {
					t.Fatalf("LocalNextHop(%d,%d) = %d: not a neighbor", cur, dst, next)
				}
				if next == cur {
					t.Fatalf("LocalNextHop(%d,%d) did not advance", cur, dst)
				}
				cur = next
				if hops++; hops > 2 {
					t.Fatalf("route %d->%d exceeds 2 hops", a, b)
				}
			}
			if want := tp.LocalDistance(RouterID(a), dst); hops != want {
				t.Fatalf("canonical route %d->%d took %d hops, want %d", a, b, hops, want)
			}
		}
	}
}

func TestPlusGlobalWiring(t *testing.T) {
	for _, cfg := range []PlusConfig{PlusMini(), Plus()} {
		tp := MustNewPlus(cfg)
		conns := tp.GlobalConns()
		wantLinks := cfg.Groups * cfg.Spines * cfg.GlobalPortsPerSpine / 2
		if len(conns) != wantLinks {
			t.Fatalf("%s: %d global links, want %d (all ports wired)", cfg.Label(), len(conns), wantLinks)
		}
		for _, conn := range conns {
			if tp.IsLeaf(conn.A) || tp.IsLeaf(conn.B) {
				t.Fatalf("%s: global link touches a leaf: %+v", cfg.Label(), conn)
			}
			if tp.GroupOfRouter(conn.A) == tp.GroupOfRouter(conn.B) {
				t.Fatalf("%s: intra-group global link %+v", cfg.Label(), conn)
			}
			if !tp.GlobalConnected(conn.A, conn.B) || !tp.GlobalConnected(conn.B, conn.A) {
				t.Fatalf("%s: GlobalConnected misses link %+v", cfg.Label(), conn)
			}
		}
		perPair := wantLinks / (cfg.Groups * (cfg.Groups - 1) / 2)
		for a := 0; a < cfg.Groups; a++ {
			for b := 0; b < cfg.Groups; b++ {
				if a == b {
					continue
				}
				gws := tp.Gateways(a, b)
				if len(gws) != perPair {
					t.Fatalf("%s: %d gateways %d->%d, want %d", cfg.Label(), len(gws), a, b, perPair)
				}
				for _, gw := range gws {
					peer, _, ok := tp.GlobalPeer(gw.Router, gw.Port)
					if !ok || peer != gw.Peer {
						t.Fatalf("%s: gateway %+v peer mismatch (got %d ok=%v)", cfg.Label(), gw, peer, ok)
					}
					if tp.GroupOfRouter(gw.Router) != a || tp.GroupOfRouter(gw.Peer) != b {
						t.Fatalf("%s: gateway %+v crosses wrong groups", cfg.Label(), gw)
					}
				}
			}
		}
	}
}

func TestPlusMinimalRouterHops(t *testing.T) {
	tp := plusMini(t)
	// Same node / same leaf: 1; same group: 1+distance; inter-group: always 4
	// (leaf, gateway spine, peer spine, leaf).
	n0 := NodeID(0)
	if got := tp.MinimalRouterHops(n0, 1); got != 1 {
		t.Fatalf("same-leaf hops = %d, want 1", got)
	}
	other := tp.NodeAt(RouterID(1), 0) // leaf 1, same group
	if got := tp.MinimalRouterHops(n0, other); got != 3 {
		t.Fatalf("leaf-leaf hops = %d, want 3", got)
	}
	far := tp.NodeAt(RouterID(tp.Config().RoutersPerGroup()), 0) // group 1 leaf 0
	if got := tp.MinimalRouterHops(n0, far); got != 4 {
		t.Fatalf("inter-group hops = %d, want 4", got)
	}
}

func TestPlusUnitsPartitionNodes(t *testing.T) {
	tp := plusMini(t)
	count := func(units int, routersIn func(int) []RouterID) int {
		seen := map[NodeID]bool{}
		for u := 0; u < units; u++ {
			for _, r := range routersIn(u) {
				for _, n := range tp.NodesOfRouter(r) {
					if seen[n] {
						t.Fatalf("node %d in two units", n)
					}
					seen[n] = true
				}
			}
		}
		return len(seen)
	}
	if got := count(tp.ChassisCount(), tp.RoutersInChassis); got != tp.NumNodes() {
		t.Fatalf("chassis cover %d nodes, want %d", got, tp.NumNodes())
	}
	if got := count(tp.CabinetCount(), tp.RoutersInCabinet); got != tp.NumNodes() {
		t.Fatalf("cabinets cover %d nodes, want %d", got, tp.NumNodes())
	}
}

func TestPlusValiantRoutersAreLeaves(t *testing.T) {
	tp := plusMini(t)
	if got, want := tp.NumValiantRouters(), tp.Config().Groups*tp.Config().Leaves; got != want {
		t.Fatalf("NumValiantRouters = %d, want %d", got, want)
	}
	seen := map[RouterID]bool{}
	for i := 0; i < tp.NumValiantRouters(); i++ {
		r := tp.ValiantRouter(i)
		if !tp.IsLeaf(r) {
			t.Fatalf("ValiantRouter(%d) = %d is a spine", i, r)
		}
		if seen[r] {
			t.Fatalf("ValiantRouter(%d) = %d repeated", i, r)
		}
		seen[r] = true
	}
}

func TestPlusValidate(t *testing.T) {
	bad := []PlusConfig{
		{},
		{Groups: 2, Leaves: 0, Spines: 1, NodesPerLeaf: 1, GlobalPortsPerSpine: 1, LeavesPerChassis: 1, ChassisPerCabinet: 1},
		{Groups: 2, Leaves: 2, Spines: 1, NodesPerLeaf: 1, GlobalPortsPerSpine: 0, LeavesPerChassis: 1, ChassisPerCabinet: 1},
		// One spine port per group cannot reach 9 other groups.
		{Groups: 10, Leaves: 2, Spines: 1, NodesPerLeaf: 2, GlobalPortsPerSpine: 1, LeavesPerChassis: 1, ChassisPerCabinet: 1},
	}
	for i, cfg := range bad {
		if _, err := NewPlus(cfg); err == nil {
			t.Fatalf("config %d: expected error", i)
		}
	}
	if err := Plus().Validate(); err != nil {
		t.Fatalf("Plus(): %v", err)
	}
}

func TestPresetRegistry(t *testing.T) {
	for _, name := range PresetNames() {
		m, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		ic, err := m.Build()
		if err != nil {
			t.Fatalf("Preset(%q).Build: %v", name, err)
		}
		if ic.NumNodes() < 1 || ic.NumRouters() < 1 {
			t.Fatalf("Preset(%q): empty machine", name)
		}
		if ic.Describe() == "" || m.Label() == "" {
			t.Fatalf("Preset(%q): missing description", name)
		}
	}
	if _, err := Preset("torus"); err == nil {
		t.Fatal("Preset(torus): expected error")
	}
}
