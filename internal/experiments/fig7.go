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
	var grid []simReq
	for _, app := range appNames() {
		scales := crFBScales
		if app == "AMG" {
			scales = amgScales
		}
		for _, s := range scales {
			// The baseline is one of the extreme cells; list it once, first.
			grid = append(grid, simReq{app: app, cell: baseline, msgScale: s})
			for _, cell := range core.ExtremeCells() {
				if cell != baseline {
					grid = append(grid, simReq{app: app, cell: cell, msgScale: s})
				}
			}
		}
	}
	if _, err := r.resolve(grid); err != nil {
		return nil, err
	}
	for _, app := range appNames() {
		scales := crFBScales
		if app == "AMG" {
			scales = amgScales
		}
		t := Table{
			Title:   fmt.Sprintf("%s max comm time relative to rand-adp (%%)", app),
			Columns: []string{"msg_scale"},
		}
		for _, cell := range core.ExtremeCells() {
			t.Columns = append(t.Columns, cell.Name())
		}
		for _, s := range scales {
			base, err := r.resultFor(app, baseline, s, nil)
			if err != nil {
				return nil, err
			}
			baseMax := base.MaxCommTime()
			row := []string{fmtF(s)}
			for _, cell := range core.ExtremeCells() {
				res, err := r.resultFor(app, cell, s, nil)
				if err != nil {
					return nil, err
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
