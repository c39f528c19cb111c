package metrics

import (
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

func TestCommTimesMs(t *testing.T) {
	got := CommTimesMs([]des.Time{des.Millisecond, 2500 * des.Microsecond})
	if got[0] != 1 || got[1] != 2.5 {
		t.Fatalf("CommTimesMs = %v", got)
	}
}

func TestRouterSet(t *testing.T) {
	topo := topotest.Mini(t)
	nodes := []topology.NodeID{0, 1, 2, 5}
	set := RouterSet(topo, nodes)
	// Mini has 2 nodes per router: nodes 0,1 -> router 0; 2 -> 1; 5 -> 2.
	want := []topology.RouterID{0, 1, 2}
	if len(set) != len(want) {
		t.Fatalf("RouterSet = %v", set)
	}
	for _, r := range want {
		if !set[r] {
			t.Fatalf("RouterSet missing router %d", r)
		}
	}
}

func fakeLinks() []network.LinkStat {
	return []network.LinkStat{
		{Kind: routing.Local, From: 0, To: 1, Bytes: 2 * MiB, SatTime: des.Millisecond},
		{Kind: routing.Local, From: 1, To: 0, Bytes: 1 * MiB, SatTime: 0},
		{Kind: routing.Global, From: 0, To: 8, Bytes: 4 * MiB, SatTime: 2 * des.Millisecond},
		{Kind: routing.Terminal, From: 0, To: 0, Node: 0, Bytes: 10 * MiB},
	}
}

func TestChannelTrafficByKindAndFilter(t *testing.T) {
	links := fakeLinks()
	local := ChannelTraffic(links, routing.Local, nil)
	if len(local) != 2 || local[0] != 2 || local[1] != 1 {
		t.Fatalf("local traffic = %v", local)
	}
	global := ChannelTraffic(links, routing.Global, nil)
	if len(global) != 1 || global[0] != 4 {
		t.Fatalf("global traffic = %v", global)
	}
	filtered := ChannelTraffic(links, routing.Local, map[topology.RouterID]bool{0: true})
	if len(filtered) != 1 || filtered[0] != 2 {
		t.Fatalf("filtered traffic = %v", filtered)
	}
}

func TestChannelSaturation(t *testing.T) {
	links := fakeLinks()
	sat := ChannelSaturation(links, routing.Global, nil)
	if len(sat) != 1 || sat[0] != 2 {
		t.Fatalf("global saturation = %v", sat)
	}
	sat = ChannelSaturation(links, routing.Local, map[topology.RouterID]bool{1: true})
	if len(sat) != 1 || sat[0] != 0 {
		t.Fatalf("filtered local saturation = %v", sat)
	}
}

func TestMaxCommTime(t *testing.T) {
	if got := MaxCommTime(nil); got != 0 {
		t.Fatalf("MaxCommTime(nil) = %v", got)
	}
	if got := MaxCommTime([]des.Time{3, 9, 0, 7}); got != 9 {
		t.Fatalf("MaxCommTime = %v, want 9", got)
	}
}
