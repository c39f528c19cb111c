package main

import (
	"reflect"
	"strings"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// TestValidateFaultsWalksTimeline: a spec whose static list fails nothing
// but whose events take group 1 down and flap a local link is checked at
// every state of its timeline, not on the healthy fabric alone. One state
// has exactly group 1's routers down, with every route valid (validateFaults
// returns no error) and the pairs that avoid group 1 still routed.
func TestValidateFaultsWalksTimeline(t *testing.T) {
	spec, err := faults.ParseSpec("fail=group:1@1us,flap=link:0-1@10us:5us")
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 50
	states, err := validateFaults(topology.Mini(), spec, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	ic := topology.BuildMachine(topology.Mini())
	var group1 []topology.RouterID
	for r := 0; r < ic.NumRouters(); r++ {
		if ic.GroupOfRouter(topology.RouterID(r)) == 1 {
			group1 = append(group1, topology.RouterID(r))
		}
	}
	perMech := map[routing.Mechanism]int{}
	groupDown := map[routing.Mechanism]bool{}
	for _, st := range states {
		perMech[st.Mech]++
		if reflect.DeepEqual(st.Down, group1) && st.At >= des.Microsecond {
			groupDown[st.Mech] = true
			if st.Routable == 0 || st.Routable == pairs {
				t.Errorf("%v at %v: %d of %d pairs routed with group 1 down", st.Mech, st.At, st.Routable, pairs)
			}
		}
	}
	for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
		if perMech[mech] < 2 || !groupDown[mech] {
			t.Errorf("%v: %d states checked, group 1 down in one: %v", mech, perMech[mech], groupDown[mech])
		}
	}
}

// TestDeadHopGlobal: a global hop is live only while some channel between
// its two routers is, so a path over a failed bundle's cable is rejected
// although both its routers are up.
func TestDeadHopGlobal(t *testing.T) {
	ic := topology.BuildMachine(topology.Mini())
	spec, err := faults.ParseSpec("bundle=0-1")
	if err != nil {
		t.Fatal(err)
	}
	set, err := faults.Resolve(spec, ic)
	if err != nil {
		t.Fatal(err)
	}
	for _, groups := range [][2]int{{0, 1}, {0, 2}} {
		gw := ic.Gateways(groups[0], groups[1])[0]
		p := routing.Path{Hops: []routing.Hop{{From: gw.Router, To: gw.Peer, Kind: routing.Global}}}
		err := deadHop(ic, set, p)
		if dead := groups == [2]int{0, 1}; dead != (err != nil) {
			t.Errorf("global hop %d->%d between groups %v: deadHop = %v", gw.Router, gw.Peer, groups, err)
		} else if dead && !strings.Contains(err.Error(), "no live channel") {
			t.Errorf("deadHop error %q does not name the channel", err)
		}
	}
}
