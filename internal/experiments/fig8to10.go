package experiments

import (
	"fmt"

	"dragonfly/internal/ascii"
	"dragonfly/internal/core"
	"dragonfly/internal/stats"
	"dragonfly/internal/workload"
)

// Figure8 regenerates the AMG interference study: communication time and
// the traffic through the channels of AMG's routers under uniform-random
// background traffic.
func (r *Runner) Figure8() (*Report, error) {
	rep := &Report{
		ID:    "fig8",
		Title: "Communication time and channel traffic of AMG with uniform random background (Figure 8)",
	}
	uni := r.uniformBackground()
	box, plot, err := r.commBoxTable("AMG", "AMG communication time under uniform background (ms)", &uni)
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, *box)
	rep.Plots = append(rep.Plots, *plot)

	traffic, err := r.bgChannelTables("AMG", &uni, true, true)
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, traffic...)
	return r.finish(rep)
}

// Figure9 regenerates the CR interference study: communication time under
// uniform and bursty backgrounds, and the local channel traffic of CR's
// routers under the bursty background.
func (r *Runner) Figure9() (*Report, error) {
	return r.appInterference("fig9", "CR",
		"Communication time and local channel traffic of CR with background traffic (Figure 9)")
}

// Figure10 regenerates the FB interference study, mirroring Figure 9.
func (r *Runner) Figure10() (*Report, error) {
	return r.appInterference("fig10", "FB",
		"Communication time and local channel traffic of FB with background traffic (Figure 10)")
}

func (r *Runner) appInterference(id, app, title string) (*Report, error) {
	rep := &Report{ID: id, Title: title}
	uni := r.uniformBackground()
	boxU, plotU, err := r.commBoxTable(app, fmt.Sprintf("%s communication time under uniform background (ms)", app), &uni)
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, *boxU)
	rep.Plots = append(rep.Plots, *plotU)

	machineNodes := r.machineNodes()
	tr, err := r.AppTrace(app)
	if err != nil {
		return nil, err
	}
	bur := r.burstyBackground(app, machineNodes-tr.NumRanks())
	boxB, plotB, err := r.commBoxTable(app, fmt.Sprintf("%s communication time under bursty background (ms)", app), &bur)
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, *boxB)
	rep.Plots = append(rep.Plots, *plotB)

	local, err := r.bgChannelTables(app, &bur, true, false)
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, local...)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"bursty volume reduced by fan-out limit (%d peers/node); Table II reports full loads", bur.FanOut))
	return r.finish(rep)
}

// commBoxTable renders a per-configuration box plot of communication times
// for one application under a background load, with its ASCII panel.
func (r *Runner) commBoxTable(app, title string, bg *workload.BackgroundConfig) (*Table, *Plot, error) {
	t := Table{
		Title:   title,
		Columns: []string{"config", "min", "q1", "median", "q3", "max"},
	}
	if _, err := r.resolve(backgroundGrid(app, bg)); err != nil {
		return nil, nil, err
	}
	var boxes []ascii.NamedValues
	for _, cell := range core.AllCells() {
		res, err := r.resultFor(app, cell, 1, bg)
		if err != nil {
			return nil, nil, err
		}
		times := res.CommTimesMs()
		b := stats.BoxOf(times)
		t.Rows = append(t.Rows, []string{
			cell.Name(), fmtF(b.Min), fmtF(b.Q1), fmtF(b.Median), fmtF(b.Q3), fmtF(b.Max),
		})
		boxes = append(boxes, ascii.NamedValues{Name: cell.Name(), Values: times})
	}
	return &t, &Plot{Title: title, Text: ascii.BoxPlot(boxes, 60)}, nil
}

// backgroundGrid lists one application's ten cells against a background load.
func backgroundGrid(app string, bg *workload.BackgroundConfig) []simReq {
	var grid []simReq
	for _, cell := range core.AllCells() {
		grid = append(grid, simReq{app: app, cell: cell, msgScale: 1, bg: bg})
	}
	return grid
}

// bgChannelTables renders the traffic through the channels of the routers
// serving the application while it ran against the background.
func (r *Runner) bgChannelTables(app string, bg *workload.BackgroundConfig, local, global bool) ([]Table, error) {
	if _, err := r.resolve(backgroundGrid(app, bg)); err != nil {
		return nil, err
	}
	var out []Table
	type panel struct {
		on    bool
		title string
		get   func(*core.Result) []float64
	}
	panels := []panel{
		{local, fmt.Sprintf("%s local channel traffic under %s background (MiB, app routers)", app, bg.Kind),
			func(res *core.Result) []float64 { return res.LocalTraffic(true) }},
		{global, fmt.Sprintf("%s global channel traffic under %s background (MiB, app routers)", app, bg.Kind),
			func(res *core.Result) []float64 { return res.GlobalTraffic(true) }},
	}
	for _, p := range panels {
		if !p.on {
			continue
		}
		t := Table{
			Title:   p.title,
			Columns: []string{"config", "p25", "p50", "p75", "p90", "max"},
		}
		for _, cell := range core.AllCells() {
			res, err := r.resultFor(app, cell, 1, bg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, append([]string{cell.Name()}, percentileRow(p.get(res))...))
		}
		out = append(out, t)
	}
	return out, nil
}
