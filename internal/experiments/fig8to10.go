package experiments

import (
	"fmt"

	"dragonfly/internal/core"
	"dragonfly/internal/workload"
)

// Figure8 regenerates the AMG interference study: communication time and
// the traffic through the channels of AMG's routers under uniform-random
// background traffic.
func (r *Runner) Figure8() (*Report, error) {
	uni, err := r.Background(workload.UniformRandom, "AMG")
	if err != nil {
		return nil, err
	}
	results, err := r.resolve(backgroundGrid("AMG", uni))
	if err != nil {
		return nil, err
	}
	title := "AMG communication time under uniform background (ms)"
	box, plot := boxTable(title, title, results)
	return r.finish(&Report{
		ID:     "fig8",
		Title:  "Communication time and channel traffic of AMG with uniform random background (Figure 8)",
		Tables: append([]Table{box}, bgChannelTables("AMG", uni, results, true, true)...),
		Plots:  []Plot{plot},
	})
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

// appInterference is the body of Figs. 9 and 10: one application's grid
// under the uniform background, then under the bursty one, in one request.
func (r *Runner) appInterference(id, app, title string) (*Report, error) {
	uni, err := r.Background(workload.UniformRandom, app)
	if err != nil {
		return nil, err
	}
	bur, err := r.Background(workload.Bursty, app)
	if err != nil {
		return nil, err
	}
	results, err := r.resolve(append(backgroundGrid(app, uni), backgroundGrid(app, bur)...))
	if err != nil {
		return nil, err
	}
	n := len(core.AllCells())
	rep := &Report{ID: id, Title: title}
	for i, bg := range []*workload.BackgroundConfig{uni, bur} {
		boxTitle := fmt.Sprintf("%s communication time under %s background (ms)", app, bg.Kind)
		t, p := boxTable(boxTitle, boxTitle, results[i*n:(i+1)*n])
		rep.Tables = append(rep.Tables, t)
		rep.Plots = append(rep.Plots, p)
	}
	rep.Tables = append(rep.Tables, bgChannelTables(app, bur, results[n:], true, false)...)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"bursty volume reduced by fan-out limit (%d peers/node); Table II reports full loads", bur.FanOut))
	return r.finish(rep)
}

// backgroundGrid lists one application's ten cells in the paper's
// presentation order, against a background load or, with nil, isolated.
func backgroundGrid(app string, bg *workload.BackgroundConfig) []simReq {
	var grid []simReq
	for _, cell := range core.AllCells() {
		grid = append(grid, simReq{app: app, cell: cell, msgScale: 1, bg: bg})
	}
	return grid
}

// bgChannelTables renders, from one application's ten-cell grid results
// under a background, the traffic through the channels of the routers
// serving the application.
func bgChannelTables(app string, bg *workload.BackgroundConfig, results []*core.Result, local, global bool) []Table {
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
	var out []Table
	for _, p := range panels {
		if !p.on {
			continue
		}
		t := Table{
			Title:   p.title,
			Columns: []string{"config", "p25", "p50", "p75", "p90", "max"},
		}
		for _, res := range results {
			t.Rows = append(t.Rows, append([]string{res.Config.Name()}, percentileRow(p.get(res))...))
		}
		out = append(out, t)
	}
	return out
}
