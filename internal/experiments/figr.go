package experiments

import (
	"fmt"

	"dragonfly/internal/core"
	"dragonfly/internal/faults"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
)

// extremeCells lists the localizing and balancing extremes — contiguous
// and random-node placement under minimal and adaptive routing — in the
// placement-major order of the figr, figa and figf tables. (core.ExtremeCells
// holds the same four cells in Figure 7's column order.)
var extremeCells = []core.Cell{
	{Placement: placement.Contiguous, Routing: routing.Minimal},
	{Placement: placement.Contiguous, Routing: routing.Adaptive},
	{Placement: placement.RandomNode, Routing: routing.Minimal},
	{Placement: placement.RandomNode, Routing: routing.Adaptive},
}

// FigureR is the resilience sweep, an extension beyond the paper: the
// paper's localizing-vs-balancing trade-off re-examined on a degraded
// fabric. For a growing fraction of failed global links (one deterministic
// fault draw per fraction, shared by every cell so all strategies face the
// same broken machine), the CR benchmark runs under the extreme placements
// x both routings; each cell reports communication-time slowdown against
// its own healthy baseline. A cell whose traffic hit a partition is marked
// "unreach" — the run still drains with every lost byte accounted, and the
// second table shows the loss.
func (r *Runner) FigureR() (*Report, error) {
	rep := &Report{
		ID:    "figr",
		Title: "Resilience sweep: comm-time slowdown vs failed global links (extension beyond the paper)",
		Notes: []string{
			"CR benchmark; per fraction, one seeded fault draw degrades the machine for every cell",
			"slowdown is against the same cell at fraction 0; unreach = placement spanned a partition (lossy run, see drops table)",
		},
	}
	_, slow, drops, err := r.faultSweep([]float64{0, 0.1, 0.25, 0.5}, extremeCells)
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, slow, drops)
	return r.finish(rep)
}

// faultSweep runs CR under every cell at each fraction of failed global
// links — fraction 0 first, on the healthy fabric — and renders the
// slowdown table (each cell against itself at fraction 0) and the
// dropped-packet table. It also returns the results, fraction-major.
func (r *Runner) faultSweep(fracs []float64, cells []core.Cell) ([]*core.Result, Table, Table, error) {
	var reqs []simReq
	for _, p := range fracs {
		spec := &faults.Spec{}
		if p > 0 {
			spec = &faults.Spec{GlobalFrac: p, Seed: r.opts.Seed}
		}
		for _, cell := range cells {
			reqs = append(reqs, simReq{app: "CR", cell: cell, msgScale: 1, faults: spec})
		}
	}
	results, err := r.resolve(reqs)
	if err != nil {
		return nil, Table{}, Table{}, err
	}

	cols := []string{"failed_global_frac"}
	for _, c := range cells {
		cols = append(cols, c.Name())
	}
	slow := Table{Title: "CR comm-time slowdown vs healthy fabric", Columns: cols}
	drops := Table{Title: "Dropped packets (traffic to unreachable destinations)", Columns: cols}
	baseline := make([]float64, len(cells))
	for fi, p := range fracs {
		srow := []string{fmtF(p)}
		drow := []string{fmtF(p)}
		for ci := range cells {
			res := results[fi*len(cells)+ci]
			ms := res.MaxCommTime().Milliseconds()
			switch {
			case p == 0:
				baseline[ci] = ms
				srow = append(srow, "1.00x")
			case res.RouteErr != nil:
				srow = append(srow, "unreach")
			default:
				srow = append(srow, fmt.Sprintf("%.2fx", ms/baseline[ci]))
			}
			drow = append(drow, fmt.Sprintf("%d", res.DroppedPackets))
		}
		slow.Rows = append(slow.Rows, srow)
		drops.Rows = append(drops.Rows, drow)
	}
	return results, slow, drops, nil
}
