package faults_test

import (
	"testing"

	"dragonfly/internal/faults"
	"dragonfly/internal/topology"
)

// FuzzParseSpec: the CLI fault grammar must never panic, and every accepted
// spec must round-trip — String() renders text that re-parses to the same
// canonical rendering. A parse-accepted spec that fails to re-parse (or
// drifts across the round trip) would mean the -faults flag and logs disagree
// about what was failed.
func FuzzParseSpec(f *testing.F) {
	f.Add("")
	f.Add("global=0.25,local=0.1,routers=3,seed=42")
	f.Add("router=7,link=3-40")
	f.Add("fail=link:3-40@200us,repair=link:3-40@1.5ms")
	f.Add("fail=router:12@1ms,repair=router:12@2ms,seed=9")
	f.Add("global=1,local=0")
	f.Add("global=nan")
	f.Add("link=5-5")
	f.Add("fail=link:3-40")
	f.Add(",,,")
	// Every kind as static clause, event and flap, in an order String
	// regroups; flaps take routers and links only.
	f.Add("bundle=0-2,router=7,group=1,link=3-40,router=2,group=0")
	f.Add("fail=router:3@1us,fail=link:3-40@2us,fail=group:1@3us,fail=bundle:0-2@4us,repair=bundle:0-2@5us,repair=group:1@6us")
	f.Add("flap=router:3@100us:50us,flap=link:3-40@200us:20us,until=1ms,seed=2")
	f.Add("flap=group:1@100us:50us")
	f.Add("flap=bundle:0-2@100us:50us")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := faults.ParseSpec(text)
		if err != nil {
			return
		}
		rendered := s.String()
		s2, err := faults.ParseSpec(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected its own rendering %q: %v", text, rendered, err)
		}
		if got := s2.String(); got != rendered {
			t.Fatalf("round trip drifted: %q -> %q -> %q", text, rendered, got)
		}
		if s.Empty() != s2.Empty() {
			t.Fatalf("round trip changed emptiness of %q", text)
		}
	})
}

// FuzzFaultSequence resolves arbitrary overlapping fail/repair/flap
// schedules against the mini machine and applies the whole timeline. The
// invariants: resolution is deterministic, the timeline is time-sorted,
// applying it never panics or corrupts the health view, and a spec whose
// only dynamics are flaps ends healthy — flapped equipment always comes
// back.
func FuzzFaultSequence(f *testing.F) {
	seeds := []string{
		"flap=link:0-1@100us:50us",
		"flap=router:2@100us:50us,flap=router:2@70us:30us,seed=5",
		"fail=group:1@100us,repair=group:1@300us,flap=link:0-1@50us:20us,until=500us",
		"fail=bundle:0-1@10us,repair=bundle:0-1@20us,fail=link:0-1@15us,repair=link:0-1@25us",
		"group=2,bundle=1-3,flap=router:0@1us:1us,until=30us,seed=9",
		"fail=router:3@5us,flap=router:3@10us:10us,repair=router:3@1ms",
		"flap=link:0-1@1ns:1ns,until=10us",
		"global=0.25,flap=link:0-1@100us:100us,fail=group:0@1us,repair=group:0@2us,seed=3",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	ic := topology.MustNew(topology.Mini())
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := faults.ParseSpec(text)
		if err != nil {
			return
		}
		a, err := faults.Resolve(spec, ic)
		if err != nil {
			return
		}
		b, err := faults.Resolve(spec, ic)
		if err != nil {
			t.Fatalf("second resolve of accepted spec %q failed: %v", text, err)
		}
		if a.Describe() != b.Describe() {
			t.Fatalf("resolution of %q not deterministic: %q vs %q", text, a.Describe(), b.Describe())
		}
		evs, evs2 := a.Events(), b.Events()
		if len(evs) != len(evs2) {
			t.Fatalf("resolution of %q expanded %d vs %d events", text, len(evs), len(evs2))
		}
		nConns, nRouters := len(ic.GlobalConns()), ic.NumRouters()
		for i, ev := range evs {
			if ev != evs2[i] {
				t.Fatalf("event %d of %q differs across resolves: %v vs %v", i, text, ev, evs2[i])
			}
			if i > 0 && ev.At < evs[i-1].At {
				t.Fatalf("timeline of %q not sorted at %d", text, i)
			}
			a.Apply(ev)
			if down := a.DownGlobalConns(); down < 0 || down > nConns {
				t.Fatalf("after event %d of %q: %d/%d global conns down", i, text, down, nConns)
			}
			if down := len(a.DownRouters()); down > nRouters {
				t.Fatalf("after event %d of %q: %d/%d routers down", i, text, down, nRouters)
			}
		}
		staticsOrEvents := spec.GlobalFrac != 0 || spec.LocalFrac != 0 || spec.Routers != 0 ||
			len(spec.Fail) != 0 || len(spec.Events) != 0
		if !staticsOrEvents && len(spec.Flaps) > 0 {
			if len(a.DownRouters()) != 0 || a.DownGlobalConns() != 0 || a.DownLocalLinks() != 0 {
				t.Fatalf("flap-only spec %q ended unhealthy: %s", text, a.Describe())
			}
		}
	})
}
