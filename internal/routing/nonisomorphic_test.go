package routing_test

import (
	"errors"
	"testing"

	"dragonfly/internal/audit"
	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
	"dragonfly/internal/topotest/policytest"
)

// TestCompactFallsBackOnNonIsomorphicGroups: on a machine whose groups are
// not wired alike, the one table design must still route and simulate
// correctly. Routes validate under min and adp, healthy and faulted; healthy
// intra-group segments follow the machine's own LocalNextHop (a table
// copied from group 0 would route group 1 row-first and still pass
// Validate); and audited fabric runs drain clean with the event counts and
// end times of the dense per-router-pair tables they replaced.
func TestCompactFallsBackOnNonIsomorphicGroups(t *testing.T) {
	ic := topotest.ColumnFirst(t)
	set, err := faults.Resolve(&faults.Spec{GlobalFrac: 0.25, LocalFrac: 0.05, Seed: 7}, ic)
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
		for _, tc := range []struct {
			name   string
			health topology.Health
		}{{"healthy", nil}, {"faulted", set}} {
			ch := routing.NewChooserOpts(ic, mech, des.NewRNG(5, "ni"), policytest.LoadOracle{}, routing.Options{Health: tc.health})
			rng := des.NewRNG(6, "ni-pairs")
			for i := 0; i < 400; i++ {
				s := topology.NodeID(rng.Intn(ic.NumNodes()))
				d := topology.NodeID(rng.Intn(ic.NumNodes()))
				p, err := ch.TryRoute(s, d)
				if err != nil {
					if tc.health == nil || !errors.Is(err, routing.ErrUnreachable) {
						t.Fatalf("%v %s %d->%d: %v", mech, tc.name, s, d, err)
					}
					continue
				}
				if err := routing.Validate(ic, ic.RouterOfNode(s), ic.RouterOfNode(d), p); err != nil {
					t.Fatalf("%v %s %d->%d: %v", mech, tc.name, s, d, err)
				}
				if tc.health == nil {
					checkCanonicalSegments(t, ic, p)
				} else {
					for _, h := range p.Hops {
						if !set.RouterUp(h.From) || !set.RouterUp(h.To) ||
							(h.Kind == routing.Local && !set.LocalLinkUp(h.From, h.To)) {
							t.Fatalf("%v faulted %d->%d: hop %d->%d uses dead equipment", mech, s, d, h.From, h.To)
						}
					}
				}
				ch.Release(p)
			}
		}
	}

	for _, tc := range []struct {
		name   string
		health topology.Health
		events uint64
		end    des.Time
	}{
		{"healthy", nil, 57315, 91144},
		{"faulted", set, 60092, 183563},
	} {
		events, end := auditedBurst(t, ic, tc.health)
		if events != tc.events || end != tc.end {
			t.Errorf("%s fabric run: %d events ending at %v, want %d at %v", tc.name, events, end, tc.events, tc.end)
		}
	}
}

// checkCanonicalSegments requires every intra-group segment of a healthy
// path (a run of local hops on one VC class) to walk ic.LocalNextHop toward
// the segment's last router.
func checkCanonicalSegments(t *testing.T, ic topology.Interconnect, p routing.Path) {
	t.Helper()
	hops := p.Hops
	for i := 0; i < len(hops); {
		if hops[i].Kind != routing.Local {
			i++
			continue
		}
		j := i
		for j+1 < len(hops) && hops[j+1].Kind == routing.Local && hops[j+1].VC == hops[i].VC {
			j++
		}
		end := hops[j].To
		for k := i; k <= j; k++ {
			if want := ic.LocalNextHop(hops[k].From, end); hops[k].To != want {
				t.Fatalf("hop %d->%d toward %d, canonical next hop is %d", hops[k].From, hops[k].To, end, want)
			}
		}
		i = j + 1
	}
}

// auditedBurst drives a fixed random adaptive load through an audited
// fabric on ic and returns the engine's event count and final clock.
func auditedBurst(t *testing.T, ic topology.Interconnect, health topology.Health) (uint64, des.Time) {
	t.Helper()
	p := network.DefaultParams()
	p.Route.Health = health
	eng := des.New()
	fab, err := network.New(eng, ic, p, routing.Adaptive, des.NewRNG(1, "ni-fab"))
	if err != nil {
		t.Fatal(err)
	}
	aud := audit.New(ic)
	fab.SetObserver(aud)
	eng.SetObserver(aud.EventExecuted)
	rng := des.NewRNG(2, "ni-load")
	for m := 0; m < 400; m++ {
		src := topology.NodeID(rng.Intn(ic.NumNodes()))
		dst := topology.NodeID(rng.Intn(ic.NumNodes()))
		fab.Send(src, dst, int64(rng.IntnRange(1, 64<<10)), nil, nil)
	}
	eng.Run()
	fab.FinishStats()
	aud.Finish(eng.Pending() == 0)
	if err := aud.Err(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	return eng.Processed(), eng.Now()
}
