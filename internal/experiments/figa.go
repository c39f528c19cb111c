package experiments

import (
	"fmt"

	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
)

// FigureA is the collective-workload sweep, an extension beyond the paper:
// the AI/storage dependency-graph generators (ring and tree all-reduce,
// MoE all-to-all, 2D/3D halo exchange, checkpoint burst) run through the
// paper's localizing-vs-balancing question — contiguous vs random-node
// placement under minimal vs adaptive routing — on both interconnects (the
// XC40 dragonfly the paper studies and the Dragonfly+ extension). The first
// table characterizes each workload's graph (what the paper's flat traces
// cannot express: dependency structure, critical path); the rest are
// fig3-style results per machine.
func (r *Runner) FigureA() (*Report, error) {
	apps := trace.GraphApps()
	machines := []topology.Machine{r.Machine(), r.figaPlusMachine()}
	rep := &Report{
		ID:    "figa",
		Title: "Collective and storage workloads across placements, routings, and interconnects (extension beyond the paper)",
		Notes: []string{
			"workloads are dependency-graph generators (GOAL-like IR), not flat traces: pipelined ring steps, windowed all-to-all, halo joins",
			"localizing (cont) vs balancing (rand) under min/adp, on the XC40 dragonfly and a Dragonfly+ machine of equal node count",
		},
	}

	structure := Table{
		Title:   "Workload graph structure",
		Columns: []string{"app", "ranks", "nodes", "edges", "total_mib", "critpath_mib", "max_fanout"},
	}
	for _, app := range apps {
		w, err := r.app(app)
		if err != nil {
			return nil, err
		}
		g := w.g
		structure.Rows = append(structure.Rows, []string{
			app, fmt.Sprintf("%d", g.NumRanks()),
			fmt.Sprintf("%d", g.NumNodes()), fmt.Sprintf("%d", g.NumEdges()),
			fmtF(float64(g.TotalSendBytes()) / (1 << 20)),
			fmtF(float64(g.CriticalPathBytes()) / (1 << 20)),
			fmt.Sprintf("%d", g.MaxFanOut()),
		})
	}
	rep.Tables = append(rep.Tables, structure)

	var reqs []simReq
	for _, m := range machines {
		for _, app := range apps {
			for _, cell := range extremeCells {
				reqs = append(reqs, simReq{app: app, cell: cell, msgScale: 1, machine: m})
			}
		}
	}
	results, err := r.resolve(reqs)
	if err != nil {
		return nil, err
	}

	i := 0
	for _, m := range machines {
		t := Table{
			Title:   fmt.Sprintf("Communication time and hops on %s", m.Label()),
			Columns: []string{"app", "config", "median_ms", "max_ms", "mean_hops"},
		}
		for _, app := range apps {
			for _, cell := range extremeCells {
				t.Rows = append(t.Rows, append([]string{app, cell.Name()}, medianMaxHops(results[i])...))
				i++
			}
		}
		rep.Tables = append(rep.Tables, t)
	}
	return r.finish(rep)
}

// figaPlusMachine returns the Dragonfly+ counterpart of the runner's scale:
// the 160-node mini preset at quick scale (same node count as the quick
// XC40 machine), the full Dragonfly+ preset at paper scale.
func (r *Runner) figaPlusMachine() topology.Machine {
	if r.opts.Scale == ScalePaper {
		return topology.Plus()
	}
	return topology.PlusMini()
}
