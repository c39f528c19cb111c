package experiments

import (
	"dragonfly/internal/core"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
)

// FigureQ is the learning-router comparison, an extension beyond the
// paper: the localizing-vs-balancing trade-off (fig3's CR question) with
// the online congestion-learning qadaptive policy swept against the
// paper's min/adp, on the extreme placements, healthy and degraded. The
// first table is the fig3-style head-to-head (communication-time
// distribution plus mean hops — the hop column shows how much each policy
// misroutes); the remaining tables are the figr-style resilience view:
// slowdown against each cell's own healthy baseline, and drop accounting.
func (r *Runner) FigureQ() (*Report, error) {
	cells := []core.Cell{
		{Placement: placement.Contiguous, Routing: routing.Minimal},
		{Placement: placement.Contiguous, Routing: routing.Adaptive},
		{Placement: placement.Contiguous, Routing: routing.QAdaptive},
		{Placement: placement.RandomNode, Routing: routing.Minimal},
		{Placement: placement.RandomNode, Routing: routing.Adaptive},
		{Placement: placement.RandomNode, Routing: routing.QAdaptive},
	}
	rep := &Report{
		ID:    "figq",
		Title: "Learning-router comparison: qadaptive vs min/adp under localizing and balancing placements (extension beyond the paper)",
		Notes: []string{
			"CR benchmark; qadaptive learns per-group-pair minimal-vs-Valiant costs online from link-saturation feedback",
			"per fraction, one seeded fault draw degrades the machine for every cell; slowdown is against the same cell at fraction 0",
		},
	}
	results, slow, drops, err := r.faultSweep([]float64{0, 0.15}, cells)
	if err != nil {
		return nil, err
	}

	headToHead := Table{
		Title:   "CR communication time and hops on the healthy fabric",
		Columns: []string{"config", "median_ms", "max_ms", "mean_hops"},
	}
	for ci, cell := range cells {
		// The fraction 0 block comes first.
		headToHead.Rows = append(headToHead.Rows, append([]string{cell.Name()}, medianMaxHops(results[ci])...))
	}
	rep.Tables = append(rep.Tables, headToHead, slow, drops)
	return r.finish(rep)
}
