package main

// This file is one side of the A/B binary: it builds its cell sets from the
// packages it imports. ab.sh compiles it as the "change" side and a copy
// importing the base revision's packages (dragonfly/internalb/...) as the
// "base" side, so it holds nothing but imports and one init.

import (
	"fmt"

	"dragonfly/internal/core"
	"dragonfly/internal/experiments"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/trace"
	"dragonfly/internal/workload"
)

func init() {
	register("change", func(set string) ([]cell, error) {
		var cfgs []core.Config
		var names []string
		switch set {
		case "fig3", "fig10":
			// The cells dfsweep runs for the figure at quick scale.
			r := experiments.NewRunner(experiments.Options{Scale: experiments.ScaleQuick, Seed: seed, Parallel: 1})
			apps := []string{"CR", "FB", "AMG"}
			bgs := []*workload.BackgroundConfig{nil}
			if set == "fig10" {
				apps, bgs = []string{"FB"}, nil
				for _, kind := range []workload.BackgroundKind{workload.UniformRandom, workload.Bursty} {
					bg, err := r.Background(kind, "FB")
					if err != nil {
						return nil, err
					}
					bgs = append(bgs, bg)
				}
			}
			for _, bg := range bgs {
				for _, app := range apps {
					for _, c := range core.AllCells() {
						cfg, err := r.CellConfig(app, c, 1, bg)
						if err != nil {
							return nil, err
						}
						kind := "none"
						if bg != nil {
							kind = bg.Kind.String()
						}
						cfgs = append(cfgs, cfg)
						names = append(names, fmt.Sprintf("%s %s bg=%s", app, c.Name(), kind))
					}
				}
			}
		case "theta":
			tr, err := trace.CR(trace.DefaultCR())
			if err != nil {
				return nil, err
			}
			for _, c := range []core.Cell{
				{Placement: placement.Contiguous, Routing: routing.Minimal},
				{Placement: placement.RandomNode, Routing: routing.Adaptive},
			} {
				cfgs = append(cfgs, core.ThetaConfig(tr, c, seed))
				names = append(names, "CR "+c.Name())
			}
		default:
			return nil, fmt.Errorf("unknown cell set %q (want fig10, fig3 or theta)", set)
		}
		cells := make([]cell, len(cfgs))
		for i, cfg := range cfgs {
			cells[i] = cell{names[i], func() (uint64, int64, error) {
				res, err := core.Run(cfg)
				if err != nil {
					return 0, 0, err
				}
				return res.Events, int64(res.Duration), nil
			}}
		}
		return cells, nil
	})
}
