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
		grid = append(grid, backgroundGrid(app, nil)...)
	}
	results, err := r.resolve(grid)
	if err != nil {
		return nil, err
	}
	n := len(core.AllCells())
	for i, app := range appNames() {
		t, p := boxTable(fmt.Sprintf("%s communication time distribution (ms)", app),
			fmt.Sprintf("%s communication time (ms)", app), results[i*n:(i+1)*n])
		rep.Tables = append(rep.Tables, t)
		rep.Plots = append(rep.Plots, p)
	}
	return r.finish(rep)
}

// Figure4 regenerates the CR deep dive: average hops CDF, local channel
// traffic CDF, and local/global link saturation CDFs across the ten
// configurations.
func (r *Runner) Figure4() (*Report, error) {
	results, err := r.resolve(backgroundGrid("CR", nil))
	if err != nil {
		return nil, err
	}
	hops := Table{
		Title:   "CR average hops per rank (distribution percentiles)",
		Columns: []string{"config", "p25", "p50", "p75", "p90", "max"},
	}
	for _, res := range results {
		hops.Rows = append(hops.Rows, append([]string{res.Config.Name()}, percentileRow(res.AvgHops)...))
	}
	more, plots := channelTables("CR", results, true, false, true, true)
	return r.finish(&Report{
		ID:     "fig4",
		Title:  "Average hops, network traffic, and link saturation time for CR (Figure 4)",
		Tables: append([]Table{hops}, more...),
		Plots:  plots,
	})
}

// Figure5 regenerates the FB channel study: local and global traffic and
// saturation CDFs.
func (r *Runner) Figure5() (*Report, error) {
	return r.channelFigure("fig5", "FB", "Network traffic and link saturation time for FB (Figure 5)")
}

// Figure6 regenerates the AMG channel study.
func (r *Runner) Figure6() (*Report, error) {
	return r.channelFigure("fig6", "AMG", "Network traffic and link saturation time for AMG (Figure 6)")
}

// channelFigure is the body of Figs. 5 and 6: all four traffic and
// saturation panels of one application's isolated grid.
func (r *Runner) channelFigure(id, app, title string) (*Report, error) {
	results, err := r.resolve(backgroundGrid(app, nil))
	if err != nil {
		return nil, err
	}
	tables, plots := channelTables(app, results, true, true, true, true)
	return r.finish(&Report{ID: id, Title: title, Tables: tables, Plots: plots})
}

// boxTable renders the per-configuration box plot of communication times
// over one application's ten-cell grid results, with its ASCII panel.
func boxTable(title, plotTitle string, results []*core.Result) (Table, Plot) {
	t := Table{
		Title:   title,
		Columns: []string{"config", "min", "q1", "median", "q3", "max"},
	}
	var boxes []ascii.NamedValues
	for _, res := range results {
		name := res.Config.Name()
		times := res.CommTimesMs()
		b := stats.BoxOf(times)
		t.Rows = append(t.Rows, []string{
			name, fmtF(b.Min), fmtF(b.Q1), fmtF(b.Median), fmtF(b.Q3), fmtF(b.Max),
		})
		boxes = append(boxes, ascii.NamedValues{Name: name, Values: times})
	}
	return t, Plot{Title: plotTitle, Text: ascii.BoxPlot(boxes, 60)}
}

// channelTables renders the traffic / saturation percentile tables of the
// Figs. 4-6 family from one application's ten-cell grid results, each with
// its ASCII CDF panel (the paper's percentage-of-channels curves). The
// boolean selectors pick which of the four panels to emit.
func channelTables(app string, results []*core.Result, localTraffic, globalTraffic, localSat, globalSat bool) ([]Table, []Plot) {
	type panel struct {
		on    bool
		title string
		get   func(*core.Result) []float64
	}
	panels := []panel{
		{localTraffic, app + " local channel traffic (MiB per channel)",
			func(res *core.Result) []float64 { return res.LocalTraffic(false) }},
		{globalTraffic, app + " global channel traffic (MiB per channel)",
			func(res *core.Result) []float64 { return res.GlobalTraffic(false) }},
		{localSat, app + " local link saturation time (ms per channel)",
			func(res *core.Result) []float64 { return res.LocalSaturation(false) }},
		{globalSat, app + " global link saturation time (ms per channel)",
			func(res *core.Result) []float64 { return res.GlobalSaturation(false) }},
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
		for _, res := range results {
			name, vals := res.Config.Name(), p.get(res)
			busy := 0
			for _, v := range vals {
				if v > 0 {
					busy++
				}
			}
			row := append([]string{name}, percentileRow(vals)...)
			row = append(row, fmt.Sprintf("%d/%d", busy, len(vals)))
			t.Rows = append(t.Rows, row)
			series[name] = vals
		}
		out = append(out, t)
		plots = append(plots, Plot{
			Title: p.title + " — CDF (percentage of channels)",
			Text:  ascii.CDFPlot(series, 60, 12),
		})
	}
	return out, plots
}
