package faults_test

import (
	"slices"
	"strings"
	"testing"

	"dragonfly/internal/faults"
	"dragonfly/internal/topology"
)

func mini(t *testing.T) topology.Interconnect {
	t.Helper()
	return topology.MustNew(topology.Mini())
}

func TestParseSpecRoundTrip(t *testing.T) {
	const text = "global=0.125,local=0.05,routers=2,router=7,link=1-5,fail=link:3-4@200µs,repair=link:3-4@1ms,seed=9"
	spec, err := faults.ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	if spec.GlobalFrac != 0.125 || spec.LocalFrac != 0.05 || spec.Routers != 2 || spec.Seed != 9 {
		t.Fatalf("parsed %+v", spec)
	}
	want := []faults.Target{{Kind: faults.Router, A: 7}, {Kind: faults.Link, A: 1, B: 5}}
	if !slices.Equal(spec.Fail, want) {
		t.Fatalf("static failures %v, want %v", spec.Fail, want)
	}
	if len(spec.Events) != 2 || spec.Events[0].Repair || !spec.Events[1].Repair {
		t.Fatalf("events %v", spec.Events)
	}
	if spec.Events[0].At != 200_000 || spec.Events[1].At != 1_000_000 {
		t.Fatalf("event times %v", spec.Events)
	}
	back, err := faults.ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", spec.String(), err)
	}
	if back.String() != spec.String() {
		t.Fatalf("round trip %q != %q", back.String(), spec.String())
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, text := range []string{
		"global=1.5",
		"global=x",
		"local=-0.1",
		"routers=-1",
		"router=x",
		"link=3",
		"link=3-3",
		"fail=link:3-4",        // missing @time
		"fail=spine:3@1ms",     // unknown target kind
		"repair=link:3-4@-1ms", // negative time
		"bogus=1",
		"global",
	} {
		if _, err := faults.ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", text)
		}
	}
	s, err := faults.ParseSpec("  ")
	if err != nil || !s.Empty() {
		t.Fatalf("blank spec: %v %v", s, err)
	}
}

func TestResolveDeterministic(t *testing.T) {
	spec := &faults.Spec{GlobalFrac: 0.25, LocalFrac: 0.1, Routers: 2, Seed: 11}
	a, err := faults.Resolve(spec, mini(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := faults.Resolve(spec, mini(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Describe() != b.Describe() {
		t.Fatalf("same spec, different sets: %q vs %q", a.Describe(), b.Describe())
	}
	ic := mini(t)
	for r := 0; r < ic.NumRouters(); r++ {
		if a.RouterUp(topology.RouterID(r)) != b.RouterUp(topology.RouterID(r)) {
			t.Fatalf("router %d health differs between identical resolves", r)
		}
	}
	// A different seed must (on this machine size) pick different equipment.
	spec2 := &faults.Spec{GlobalFrac: 0.25, LocalFrac: 0.1, Routers: 2, Seed: 12}
	c, err := faults.Resolve(spec2, mini(t))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for r := 0; r < ic.NumRouters(); r++ {
		if a.RouterUp(topology.RouterID(r)) != c.RouterUp(topology.RouterID(r)) {
			same = false
		}
	}
	for _, cn := range ic.GlobalConns() {
		if a.GlobalLinkUp(cn.A, cn.APort) != c.GlobalLinkUp(cn.A, cn.APort) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 11 and 12 resolved to an identical fault set")
	}
}

func TestResolveFractions(t *testing.T) {
	ic := mini(t)
	spec := &faults.Spec{GlobalFrac: 0.5, Seed: 3}
	s, err := faults.Resolve(spec, ic)
	if err != nil {
		t.Fatal(err)
	}
	want := (len(ic.GlobalConns()) + 1) / 2
	if got := s.DownGlobalConns(); got != want && got != want-1 {
		t.Fatalf("global=0.5 downed %d of %d cables", got, len(ic.GlobalConns()))
	}
	down := 0
	for _, cn := range ic.GlobalConns() {
		up := s.GlobalLinkUp(cn.A, cn.APort)
		if up != s.GlobalLinkUp(cn.B, cn.BPort) {
			t.Fatalf("cable %v: endpoint views disagree", cn)
		}
		if !up {
			down++
		}
	}
	if down != s.DownGlobalConns() {
		t.Fatalf("health view says %d cables down, set says %d", down, s.DownGlobalConns())
	}
}

func TestRouterFailureFoldsIntoLinks(t *testing.T) {
	ic := mini(t)
	s, err := faults.Resolve(&faults.Spec{}, ic)
	if err != nil {
		t.Fatal(err)
	}
	r := topology.RouterID(3)
	router := faults.Target{Kind: faults.Router, A: int(r)}
	s.Apply(faults.Event{Target: router})
	if s.RouterUp(r) {
		t.Fatal("failing the router did not mark it down")
	}
	for _, nb := range ic.LocalNeighbors(r) {
		if s.LocalLinkUp(r, nb) || s.LocalLinkUp(nb, r) {
			t.Fatalf("local link %d-%d still up with router %d down", r, nb, r)
		}
	}
	for _, cn := range ic.GlobalConns() {
		if cn.A == r && s.GlobalLinkUp(cn.A, cn.APort) {
			t.Fatalf("global link at dead router %d still up", r)
		}
		if cn.B == r && s.GlobalLinkUp(cn.B, cn.BPort) {
			t.Fatalf("global link into dead router %d still up (far end view)", r)
		}
	}
	s.Apply(faults.Event{Target: router, Repair: true})
	if !s.RouterUp(r) || !s.LocalLinkUp(r, ic.LocalNeighbors(r)[0]) {
		t.Fatal("repairing the router did not restore its links")
	}
	if !s.Empty() {
		t.Fatalf("repaired set not empty: %s", s.Describe())
	}
}

func TestFailLinkPairForms(t *testing.T) {
	ic := mini(t)
	s, err := faults.Resolve(&faults.Spec{}, ic)
	if err != nil {
		t.Fatal(err)
	}
	link := func(a, b topology.RouterID, repair bool) faults.Event {
		return faults.Event{Target: faults.Target{Kind: faults.Link, A: int(a), B: int(b)}, Repair: repair}
	}
	// A local pair.
	a := topology.RouterID(0)
	b := ic.LocalNeighbors(a)[0]
	s.Apply(link(a, b, false))
	if s.LocalLinkUp(a, b) {
		t.Fatal("local link still up after its failure")
	}
	s.Apply(link(a, b, true))
	if !s.LocalLinkUp(a, b) {
		t.Fatal("local link still down after its repair")
	}
	// A global pair downs every parallel cable between the two routers.
	cn := ic.GlobalConns()[0]
	s.Apply(link(cn.A, cn.B, false))
	if s.GlobalLinkUp(cn.A, cn.APort) || s.GlobalLinkUp(cn.B, cn.BPort) {
		t.Fatal("global cable still up after its failure")
	}
	s.Apply(link(cn.A, cn.B, true))
	if !s.GlobalLinkUp(cn.A, cn.APort) {
		t.Fatal("global cable still down after its repair")
	}
}

func TestResolveRejectsBadSpecs(t *testing.T) {
	ic := mini(t)
	for _, spec := range []*faults.Spec{
		{GlobalFrac: 2},
		{LocalFrac: -0.5},
		{Routers: ic.NumRouters() + 1},
		{Fail: []faults.Target{{Kind: faults.Router, A: ic.NumRouters()}}},
		{Fail: []faults.Target{{Kind: faults.Link, A: 0, B: ic.NumRouters() + 5}}},
		{Events: []faults.Event{{Target: faults.Target{Kind: faults.Router, A: ic.NumRouters()}}}},
		// A target of unknown kind, static, scheduled or flapping.
		{Fail: []faults.Target{{A: 1}}},
		{Fail: []faults.Target{{Kind: faults.Bundle + 1, A: 0, B: 1}}},
		{Events: []faults.Event{{At: 1000, Target: faults.Target{A: 1}}}},
		{Flaps: []faults.Flap{{Target: faults.Target{A: 1}, MTBF: 1000, MTTR: 1000}}},
	} {
		if _, err := faults.Resolve(spec, ic); err == nil {
			t.Errorf("Resolve(%+v): want error, got nil", spec)
		}
		// The rendering keys farm results, so it must show every bad
		// field rather than alias the spec to one that resolves.
		if spec.String() == "" {
			t.Errorf("%+v renders as the empty spec", spec)
		}
	}
}

func TestResolveRejectsUnwiredPair(t *testing.T) {
	ic := mini(t)
	// Find an unwired router pair (no local link, no global cable).
	for a := 0; a < ic.NumRouters(); a++ {
		for b := a + 1; b < ic.NumRouters(); b++ {
			ra, rb := topology.RouterID(a), topology.RouterID(b)
			if ic.LocalConnected(ra, rb) || ic.GlobalConnected(ra, rb) {
				continue
			}
			spec := &faults.Spec{Fail: []faults.Target{{Kind: faults.Link, A: a, B: b}}}
			if _, err := faults.Resolve(spec, ic); err == nil ||
				!strings.Contains(err.Error(), "not wired") {
				t.Fatalf("Resolve unwired pair %d-%d: err=%v", a, b, err)
			}
			return
		}
	}
	t.Skip("mini machine is fully connected")
}

func TestApplyTimeline(t *testing.T) {
	ic := mini(t)
	spec, err := faults.ParseSpec("fail=router:2@100us,repair=router:2@300us")
	if err != nil {
		t.Fatal(err)
	}
	s, err := faults.Resolve(spec, ic)
	if err != nil {
		t.Fatal(err)
	}
	if s.Empty() {
		t.Fatal("set with pending events reports Empty")
	}
	evs := s.Events()
	if len(evs) != 2 || evs[0].At >= evs[1].At {
		t.Fatalf("events not sorted: %v", evs)
	}
	s.Apply(evs[0])
	if s.RouterUp(2) {
		t.Fatal("fail event did not take")
	}
	s.Apply(evs[1])
	if !s.RouterUp(2) {
		t.Fatal("repair event did not take")
	}
}
