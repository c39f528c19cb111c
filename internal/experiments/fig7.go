package experiments

import (
	"fmt"

	"dragonfly/internal/core"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
)

// crFBScales and amgScales are the message-size sweeps of the sensitivity
// study (Sec. IV-B): CR and FB from 1% to twice the original size; AMG from
// 50% to 20x.
// The grids bracket the paper's crossover points (CR: below ~0.1x
// contiguous wins; AMG: above ~10x random wins) with five points per app
// to keep the sweep tractable on one core.
var (
	crFBScales = []float64{0.01, 0.1, 0.5, 1.0, 2.0}
	amgScales  = []float64{0.5, 1, 5, 10, 20}
)

// fig7Scales returns the message-size sweep of one application.
func fig7Scales(app string) []float64 {
	if app == "AMG" {
		return amgScales
	}
	return crFBScales
}

// Figure7 regenerates the communication-intensity sensitivity study: the
// maximum communication time across ranks, relative to the rand-adp
// configuration, for the four extreme placement x routing combinations
// over a sweep of message-size scales.
func (r *Runner) Figure7() (*Report, error) {
	rep := &Report{
		ID:    "fig7",
		Title: "Communication performance with various message sizes (Figure 7)",
		Notes: []string{"values are max comm time as % of rand-adp at the same scale"},
	}
	baseline := core.Cell{Placement: placement.RandomNode, Routing: routing.Adaptive}
	cells := core.ExtremeCells()
	var grid []simReq
	for _, app := range appNames() {
		for _, s := range fig7Scales(app) {
			// The baseline is one of the extreme cells; list it once, first.
			grid = append(grid, simReq{app: app, cell: baseline, msgScale: s})
			for _, cell := range cells {
				if cell != baseline {
					grid = append(grid, simReq{app: app, cell: cell, msgScale: s})
				}
			}
		}
	}
	results, err := r.resolve(grid)
	if err != nil {
		return nil, err
	}
	for _, app := range appNames() {
		t := Table{
			Title:   fmt.Sprintf("%s max comm time relative to rand-adp (%%)", app),
			Columns: []string{"msg_scale"},
		}
		for _, cell := range cells {
			t.Columns = append(t.Columns, cell.Name())
		}
		for _, s := range fig7Scales(app) {
			// One scale's block of the grid: the baseline, then the other
			// cells in column order.
			block := results[:len(cells)]
			results = results[len(cells):]
			baseMax := block[0].MaxCommTime()
			others := block[1:]
			row := []string{fmtF(s)}
			for _, cell := range cells {
				res := block[0]
				if cell != baseline {
					res, others = others[0], others[1:]
				}
				pct := 100 * float64(res.MaxCommTime()) / float64(baseMax)
				row = append(row, fmt.Sprintf("%.1f", pct))
			}
			t.Rows = append(t.Rows, row)
		}
		rep.Tables = append(rep.Tables, t)
	}
	return r.finish(rep)
}
