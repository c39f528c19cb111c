package experiments

import (
	"fmt"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/topology"
)

// figfScenario is one availability scenario of the figf sweep: a label and
// the fault spec that realizes it on a particular machine (empty = healthy).
type figfScenario struct {
	name string
	spec *faults.Spec
}

// FigureF is the availability sweep, an extension beyond the paper: the
// localizing-vs-balancing question re-examined under realistic fault
// dynamics — a flapping global cable (seeded MTBF/MTTR fail/repair cycles)
// and correlated failure domains (a whole cable bundle, a whole group) that
// fail mid-run and are repaired mid-run — on both interconnects. Fault
// targets are derived from each machine's own wiring (the first global cable
// and its endpoint groups), never hard-coded, so the same scenario
// vocabulary is valid on any topology. Every run drains with exact loss
// accounting; a cell whose traffic hit a partition window is marked
// "unreach" rather than erroring.
func (r *Runner) FigureF() (*Report, error) {
	machines := []topology.Machine{r.Machine(), r.figaPlusMachine()}
	rep := &Report{
		ID:    "figf",
		Title: "Availability sweep: flapping cable and correlated failure domains (extension beyond the paper)",
		Notes: []string{
			"CR benchmark; per machine, fault targets derive from its first global cable and that cable's endpoint groups",
			"flap = seeded MTBF/MTTR fail/repair cycles on one cable; bundle/group = correlated outage failed mid-run and repaired mid-run",
			"unreach = traffic hit a partition window (lossy run; drops are accounted in dropped_pkts)",
		},
	}

	var reqs []simReq
	scens := make([][]figfScenario, len(machines))
	for mi, m := range machines {
		ic, err := m.Build()
		if err != nil {
			return nil, err
		}
		scens[mi], err = r.figfScenarios(ic)
		if err != nil {
			return nil, err
		}
		for _, sc := range scens[mi] {
			for _, cell := range extremeCells {
				reqs = append(reqs, simReq{app: "CR", cell: cell, msgScale: 1, machine: m, faults: sc.spec})
			}
		}
	}
	results, err := r.resolve(reqs)
	if err != nil {
		return nil, err
	}

	i := 0
	for mi, m := range machines {
		t := Table{
			Title:   fmt.Sprintf("CR availability on %s", m.Label()),
			Columns: []string{"scenario", "config", "median_ms", "max_ms", "mean_hops", "dropped_pkts", "status"},
		}
		for _, sc := range scens[mi] {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s %s: %s", m.Label(), sc.name, describeFaults(sc.spec)))
			for _, cell := range extremeCells {
				res := results[i]
				i++
				status := "ok"
				if res.RouteErr != nil {
					status = "unreach"
				}
				row := append([]string{sc.name, cell.Name()}, medianMaxHops(res)...)
				t.Rows = append(t.Rows, append(row, fmt.Sprintf("%d", res.DroppedPackets), status))
			}
		}
		rep.Tables = append(rep.Tables, t)
	}
	return r.finish(rep)
}

// figfScenarios derives the machine-specific availability scenarios. Targets
// come from the built machine — the first entry of its deterministic global
// cable enumeration and that cable's endpoint groups — so the sweep needs no
// per-topology router IDs and stays valid when machine presets change shape.
func (r *Runner) figfScenarios(ic topology.Interconnect) ([]figfScenario, error) {
	conns := ic.GlobalConns()
	if len(conns) == 0 {
		return nil, fmt.Errorf("experiments: figf: machine %s has no global cables", ic.Name())
	}
	c := conns[0]
	g1, g2 := ic.GroupOfRouter(c.A), ic.GroupOfRouter(c.B)
	const (
		failAt   = 20 * des.Microsecond
		repairAt = 120 * des.Microsecond
	)
	outage := func(t faults.Target) *faults.Spec {
		return &faults.Spec{Events: []faults.Event{
			{At: failAt, Target: t},
			{At: repairAt, Target: t, Repair: true},
		}}
	}
	return []figfScenario{
		{"healthy", &faults.Spec{}},
		{"flap", &faults.Spec{
			Flaps: []faults.Flap{{
				Target: faults.Target{Kind: faults.Link, A: int(c.A), B: int(c.B)},
				MTBF:   100 * des.Microsecond,
				MTTR:   50 * des.Microsecond,
			}},
			FlapUntil: 500 * des.Microsecond,
			Seed:      r.opts.Seed,
		}},
		{"bundle", outage(faults.Target{Kind: faults.Bundle, A: g1, B: g2})},
		{"group", outage(faults.Target{Kind: faults.Group, A: g2})},
	}, nil
}

// describeFaults renders a scenario spec for the report notes.
func describeFaults(s *faults.Spec) string {
	if s.Empty() {
		return "no faults"
	}
	return s.String()
}
