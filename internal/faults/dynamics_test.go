package faults_test

import (
	"reflect"
	"testing"

	"dragonfly/internal/faults"
	"dragonfly/internal/topology"
)

// TestFlapExpansion: a flap resolves into a well-formed alternating
// fail/repair timeline — times ascending, every fail followed by its
// repair, ending healthy — and the expansion is a pure function of
// (spec, machine).
func TestFlapExpansion(t *testing.T) {
	ic := mini(t)
	a := topology.RouterID(0)
	b := ic.LocalNeighbors(a)[0]
	link := faults.Target{Kind: faults.Link, A: int(a), B: int(b)}
	spec := &faults.Spec{
		Flaps:     []faults.Flap{{Target: link, MTBF: 100_000, MTTR: 50_000}}, // 100us : 50us
		FlapUntil: 1_000_000,                                                  // 1ms
		Seed:      7,
	}
	s1, err := faults.Resolve(spec, ic)
	if err != nil {
		t.Fatal(err)
	}
	evs := s1.Events()
	if len(evs) == 0 {
		t.Fatal("flap expanded to no events over 10 expected up/down cycles")
	}
	if len(evs)%2 != 0 {
		t.Fatalf("flap timeline has %d events; fails and repairs must pair", len(evs))
	}
	for i, ev := range evs {
		if ev.Target != link {
			t.Fatalf("event %d targets %v, want %v", i, ev, link)
		}
		if i > 0 && ev.At < evs[i-1].At {
			t.Fatalf("events not time-sorted at %d: %v after %v", i, ev, evs[i-1])
		}
		if want := i%2 == 1; ev.Repair != want {
			t.Fatalf("event %d repair=%t, want alternating fail/repair", i, ev.Repair)
		}
	}
	if !evs[len(evs)-1].Repair {
		t.Fatal("flap timeline does not end with a repair")
	}

	s2, err := faults.Resolve(spec, ic)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, s2.Events()) {
		t.Fatal("identical specs expanded to different flap timelines")
	}

	other := *spec
	other.Seed = 8
	s3, err := faults.Resolve(&other, ic)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(evs, s3.Events()) {
		t.Fatal("seeds 7 and 8 expanded to identical flap timelines")
	}

	// Applying the whole timeline leaves the machine healthy.
	for _, ev := range evs {
		s1.Apply(ev)
	}
	if s1.DownLocalLinks() != 0 || s1.DownGlobalConns() != 0 || len(s1.DownRouters()) != 0 {
		t.Fatalf("flapped machine not healthy after its final repair: %s", s1.Describe())
	}
}

// TestFlapStreamsAreIndependent: adding a second flap must not perturb the
// first flap's timeline.
func TestFlapStreamsAreIndependent(t *testing.T) {
	ic := mini(t)
	a := topology.RouterID(0)
	link := faults.Target{Kind: faults.Link, A: int(a), B: int(ic.LocalNeighbors(a)[0])}
	one := &faults.Spec{
		Flaps: []faults.Flap{{Target: link, MTBF: 100_000, MTTR: 50_000}},
		Seed:  3,
	}
	two := &faults.Spec{
		Flaps: []faults.Flap{
			{Target: link, MTBF: 100_000, MTTR: 50_000},
			{Target: faults.Target{Kind: faults.Router, A: 5}, MTBF: 200_000, MTTR: 20_000},
		},
		Seed: 3,
	}
	s1, err := faults.Resolve(one, ic)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := faults.Resolve(two, ic)
	if err != nil {
		t.Fatal(err)
	}
	var linkEvents []faults.Event
	for _, ev := range s2.Events() {
		if ev.Target == link {
			linkEvents = append(linkEvents, ev)
		}
	}
	if !reflect.DeepEqual(s1.Events(), linkEvents) {
		t.Fatal("adding a router flap perturbed the link flap's timeline")
	}
}

// TestGroupFaults: group=G is a correlated whole-group outage, applied and
// repaired as one unit through statics and dynamic events alike.
func TestGroupFaults(t *testing.T) {
	ic := mini(t)
	const g = 1
	group := faults.Target{Kind: faults.Group, A: g}
	s, err := faults.Resolve(&faults.Spec{Fail: []faults.Target{group}}, ic)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ic.NumRouters(); r++ {
		want := ic.GroupOfRouter(topology.RouterID(r)) != g
		if s.RouterUp(topology.RouterID(r)) != want {
			t.Fatalf("router %d up=%t after failing group %d", r, !want, g)
		}
	}
	s.Apply(faults.Event{Target: group, Repair: true})
	if len(s.DownRouters()) != 0 {
		t.Fatalf("group repair left routers down: %v", s.DownRouters())
	}
}

// TestBundleFaults: bundle=G1-G2 downs exactly the global cables between
// the two groups, both endpoint views agreeing, and repairs as one unit.
func TestBundleFaults(t *testing.T) {
	ic := mini(t)
	g1, g2 := 0, 1
	bundle := faults.Target{Kind: faults.Bundle, A: g1, B: g2}
	s, err := faults.Resolve(&faults.Spec{Fail: []faults.Target{bundle}}, ic)
	if err != nil {
		t.Fatal(err)
	}
	inBundle := func(c topology.GlobalConn) bool {
		ga, gb := ic.GroupOfRouter(c.A), ic.GroupOfRouter(c.B)
		return (ga == g1 && gb == g2) || (ga == g2 && gb == g1)
	}
	cables := 0
	for _, c := range ic.GlobalConns() {
		up := s.GlobalLinkUp(c.A, c.APort)
		if up != s.GlobalLinkUp(c.B, c.BPort) {
			t.Fatalf("cable %v: endpoint views disagree", c)
		}
		if inBundle(c) {
			cables++
			if up {
				t.Fatalf("cable %v inside failed bundle %d-%d still up", c, g1, g2)
			}
		} else if !up {
			t.Fatalf("cable %v outside bundle %d-%d went down", c, g1, g2)
		}
	}
	if cables == 0 {
		t.Fatalf("mini machine has no cables between groups %d and %d; test is vacuous", g1, g2)
	}
	if s.DownGlobalConns() != cables {
		t.Fatalf("DownGlobalConns=%d, bundle holds %d cables", s.DownGlobalConns(), cables)
	}
	s.Apply(faults.Event{Target: bundle, Repair: true})
	if s.DownGlobalConns() != 0 {
		t.Fatal("bundle repair left cables down")
	}
}

// TestDynamicsSpecErrors: the new grammar forms reject malformed input with
// one-line errors, and Resolve validates targets against the machine.
func TestDynamicsSpecErrors(t *testing.T) {
	for _, text := range []string{
		"group=-1",
		"group=x",
		"bundle=1",
		"bundle=1-1",
		"bundle=a-b",
		"flap=link:0-1",           // missing @MTBF:MTTR
		"flap=link:0-1@100us",     // missing MTTR
		"flap=link:0-1@0s:50us",   // MTBF not positive
		"flap=link:0-1@100us:-1s", // MTTR negative
		"flap=spine:3@1us:1us",    // unknown target kind
		"flap=link:3-3@1us:1us",   // degenerate pair
		"until=0s",
		"until=x",
		"fail=group:-1@1ms",
		"fail=bundle:2@1ms",
		"fail=bundle:2-2@1ms",
	} {
		if _, err := faults.ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", text)
		}
	}

	ic := mini(t)
	for _, spec := range []*faults.Spec{
		{Fail: []faults.Target{{Kind: faults.Group, A: ic.NumGroups()}}},
		{Fail: []faults.Target{{Kind: faults.Bundle, A: 0, B: ic.NumGroups()}}},
		{Fail: []faults.Target{{Kind: faults.Bundle, A: 0, B: 0}}},
		{Events: []faults.Event{{Target: faults.Target{Kind: faults.Group, A: ic.NumGroups()}}}},
		{Events: []faults.Event{{Target: faults.Target{Kind: faults.Bundle, A: 0, B: ic.NumGroups()}}}},
		{Flaps: []faults.Flap{{Target: faults.Target{Kind: faults.Router, A: ic.NumRouters()}, MTBF: 1000, MTTR: 1000}}},
		{Flaps: []faults.Flap{{Target: faults.Target{Kind: faults.Link, A: 0, B: 1}, MTBF: 0, MTTR: 1000}}},
		// Flaps stay router- or link-only.
		{Flaps: []faults.Flap{{Target: faults.Target{Kind: faults.Group, A: 1}, MTBF: 1000, MTTR: 1000}}},
		{Flaps: []faults.Flap{{Target: faults.Target{Kind: faults.Bundle, A: 0, B: 1}, MTBF: 1000, MTTR: 1000}}},
	} {
		if _, err := faults.Resolve(spec, ic); err == nil {
			t.Errorf("Resolve(%+v): want error, got nil", spec)
		}
	}
}

// TestDynamicsRoundTrip: the new clauses render canonically and re-parse.
func TestDynamicsRoundTrip(t *testing.T) {
	const text = "group=1,bundle=0-2,flap=link:0-1@100µs:50µs,flap=router:5@1ms:200µs,until=2ms,fail=group:1@100µs,repair=bundle:0-2@1ms,seed=4"
	spec, err := faults.ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Fail) != 2 || len(spec.Flaps) != 2 {
		t.Fatalf("parsed %+v", spec)
	}
	if spec.FlapUntil != 2_000_000 {
		t.Fatalf("until parsed to %d", spec.FlapUntil)
	}
	if spec.Flaps[1].Target.Kind != faults.Router || spec.Flaps[1].MTBF != 1_000_000 || spec.Flaps[1].MTTR != 200_000 {
		t.Fatalf("router flap parsed to %+v", spec.Flaps[1])
	}
	back, err := faults.ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", spec.String(), err)
	}
	if back.String() != spec.String() {
		t.Fatalf("round trip %q != %q", back.String(), spec.String())
	}
}
