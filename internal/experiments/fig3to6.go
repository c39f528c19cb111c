package experiments

import (
	"fmt"

	"dragonfly/internal/ascii"
	"dragonfly/internal/core"
	"dragonfly/internal/stats"
)

// Figure3 regenerates the communication-time box plots: each application
// isolated on the machine under the ten placement x routing configurations.
func (r *Runner) Figure3() (*Report, error) {
	rep := &Report{
		ID:    "fig3",
		Title: "Application communication times under different placement and routing (Figure 3)",
	}
	var grid []simReq
	for _, app := range appNames() {
		grid = append(grid, isolatedGrid(app)...)
	}
	if _, err := r.resolve(grid); err != nil {
		return nil, err
	}
	for _, app := range appNames() {
		t := Table{
			Title:   fmt.Sprintf("%s communication time distribution (ms)", app),
			Columns: []string{"config", "min", "q1", "median", "q3", "max"},
		}
		var boxes []ascii.NamedValues
		for _, cell := range core.AllCells() {
			res, err := r.resultFor(app, cell, 1, nil)
			if err != nil {
				return nil, err
			}
			times := res.CommTimesMs()
			b := stats.BoxOf(times)
			t.Rows = append(t.Rows, []string{
				cell.Name(), fmtF(b.Min), fmtF(b.Q1), fmtF(b.Median), fmtF(b.Q3), fmtF(b.Max),
			})
			boxes = append(boxes, ascii.NamedValues{Name: cell.Name(), Values: times})
		}
		rep.Tables = append(rep.Tables, t)
		rep.Plots = append(rep.Plots, Plot{
			Title: fmt.Sprintf("%s communication time (ms)", app),
			Text:  ascii.BoxPlot(boxes, 60),
		})
	}
	return r.finish(rep)
}

// Figure4 regenerates the CR deep dive: average hops CDF, local channel
// traffic CDF, and local/global link saturation CDFs across the ten
// configurations.
func (r *Runner) Figure4() (*Report, error) {
	rep := &Report{
		ID:    "fig4",
		Title: "Average hops, network traffic, and link saturation time for CR (Figure 4)",
	}
	hops := Table{
		Title:   "CR average hops per rank (distribution percentiles)",
		Columns: []string{"config", "p25", "p50", "p75", "p90", "max"},
	}
	if _, err := r.resolve(isolatedGrid("CR")); err != nil {
		return nil, err
	}
	for _, cell := range core.AllCells() {
		res, err := r.resultFor("CR", cell, 1, nil)
		if err != nil {
			return nil, err
		}
		hops.Rows = append(hops.Rows, append([]string{cell.Name()}, percentileRow(res.AvgHops)...))
	}
	rep.Tables = append(rep.Tables, hops)

	more, plots, err := r.channelTables("CR", false, true, false, true, true)
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, more...)
	rep.Plots = plots
	return r.finish(rep)
}

// Figure5 regenerates the FB channel study: local and global traffic and
// saturation CDFs.
func (r *Runner) Figure5() (*Report, error) {
	rep := &Report{
		ID:    "fig5",
		Title: "Network traffic and link saturation time for FB (Figure 5)",
	}
	tables, plots, err := r.channelTables("FB", false, true, true, true, true)
	if err != nil {
		return nil, err
	}
	rep.Tables = tables
	rep.Plots = plots
	return r.finish(rep)
}

// Figure6 regenerates the AMG channel study.
func (r *Runner) Figure6() (*Report, error) {
	rep := &Report{
		ID:    "fig6",
		Title: "Network traffic and link saturation time for AMG (Figure 6)",
	}
	tables, plots, err := r.channelTables("AMG", false, true, true, true, true)
	if err != nil {
		return nil, err
	}
	rep.Tables = tables
	rep.Plots = plots
	return r.finish(rep)
}

// channelTables produces the traffic / saturation percentile tables of the
// Figs. 4-6 family for one application across all ten configurations, each
// with its ASCII CDF panel (the paper's percentage-of-channels curves).
// The boolean selectors pick which of the four panels to emit; restrict
// limits the census to channels of routers serving the application.
func (r *Runner) channelTables(app string, restrict, localTraffic, globalTraffic, localSat, globalSat bool) ([]Table, []Plot, error) {
	if _, err := r.resolve(isolatedGrid(app)); err != nil {
		return nil, nil, err
	}
	type panel struct {
		on    bool
		title string
		get   func(*core.Result) []float64
	}
	scope := ""
	if restrict {
		scope = ", app routers only"
	}
	panels := []panel{
		{localTraffic, fmt.Sprintf("%s local channel traffic (MiB per channel%s)", app, scope),
			func(res *core.Result) []float64 { return res.LocalTraffic(restrict) }},
		{globalTraffic, fmt.Sprintf("%s global channel traffic (MiB per channel%s)", app, scope),
			func(res *core.Result) []float64 { return res.GlobalTraffic(restrict) }},
		{localSat, fmt.Sprintf("%s local link saturation time (ms per channel%s)", app, scope),
			func(res *core.Result) []float64 { return res.LocalSaturation(restrict) }},
		{globalSat, fmt.Sprintf("%s global link saturation time (ms per channel%s)", app, scope),
			func(res *core.Result) []float64 { return res.GlobalSaturation(restrict) }},
	}
	var out []Table
	var plots []Plot
	for _, p := range panels {
		if !p.on {
			continue
		}
		t := Table{
			Title:   p.title,
			Columns: []string{"config", "p25", "p50", "p75", "p90", "max", "busy_channels"},
		}
		series := map[string][]float64{}
		for _, cell := range core.AllCells() {
			res, err := r.resultFor(app, cell, 1, nil)
			if err != nil {
				return nil, nil, err
			}
			vals := p.get(res)
			busy := 0
			for _, v := range vals {
				if v > 0 {
					busy++
				}
			}
			row := append([]string{cell.Name()}, percentileRow(vals)...)
			row = append(row, fmt.Sprintf("%d/%d", busy, len(vals)))
			t.Rows = append(t.Rows, row)
			series[cell.Name()] = vals
		}
		out = append(out, t)
		plots = append(plots, Plot{
			Title: p.title + " — CDF (percentage of channels)",
			Text:  ascii.CDFPlot(series, 60, 12),
		})
	}
	return out, plots, nil
}

// isolatedGrid lists one application's ten no-background cells in the
// paper's presentation order.
func isolatedGrid(app string) []simReq {
	var grid []simReq
	for _, cell := range core.AllCells() {
		grid = append(grid, simReq{app: app, cell: cell, msgScale: 1})
	}
	return grid
}
