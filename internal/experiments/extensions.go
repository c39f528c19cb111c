package experiments

import (
	"fmt"

	"dragonfly/internal/core"
	"dragonfly/internal/mapping"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/trace"
)

// Extension experiments beyond the paper's figures: the task-mapping study
// its future-work section names (xmap), and a real-trace co-run
// interference study in the spirit of the authors' prior "bully" work
// (xmulti).

// XMap studies task mapping (the paper's stated future work): AMG — the
// neighbor-heavy application — on a random-router allocation under every
// mapping policy. Locality-restoring mappings should recover part of the
// contiguous placement's advantage.
func (r *Runner) XMap() (*Report, error) {
	rep := &Report{
		ID:    "xmap",
		Title: "Task mapping study (extension; paper Sec. VI future work)",
		Notes: []string{"AMG on a random-router allocation, adaptive routing"},
	}
	t := Table{
		Title:   "AMG communication time and locality by task mapping",
		Columns: []string{"mapping", "median_ms", "max_ms", "mean_hops"},
	}
	var reqs []simReq
	for _, pol := range mapping.All() {
		reqs = append(reqs, simReq{
			app:      "AMG",
			cell:     core.Cell{Placement: placement.RandomRouter, Routing: routing.Adaptive},
			msgScale: 1,
			mapping:  pol,
		})
	}
	results, err := r.resolve(reqs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		t.Rows = append(t.Rows, append([]string{reqs[i].mapping.String()}, medianMaxHops(res)...))
	}
	rep.Tables = append(rep.Tables, t)
	return r.finish(rep)
}

// XMulti studies inter-job interference with real traces: a light AMG
// victim co-running with a heavy CR bully under different placement
// pairings, compared with AMG running alone. Its co-runs go through
// core.RunMulti, not the farm, and have no fault model, so a degraded
// fabric (Options.Faults) is rejected rather than silently ignored.
func (r *Runner) XMulti() (*Report, error) {
	if !r.opts.Faults.Empty() {
		return nil, fmt.Errorf("experiments: xmulti co-runs have no fault model; run it without -faults (got %s)", r.opts.Faults)
	}
	rep := &Report{
		ID:    "xmulti",
		Title: "Multijob co-run interference (extension; cf. the authors' prior bully study)",
	}
	amg, err := r.AppTrace("AMG")
	if err != nil {
		return nil, err
	}
	cr, err := r.xmultiBully()
	if err != nil {
		return nil, err
	}

	runCo := func(jobs []core.JobSpec) (*core.MultiResult, error) {
		res, err := core.RunMulti(core.MultiConfig{
			Topology: r.Machine(),
			Params:   network.DefaultParams(),
			Routing:  routing.Adaptive,
			Jobs:     jobs,
			Seed:     r.opts.Seed,
			Audit:    r.opts.Audit,
		})
		if err != nil {
			return nil, err
		}
		if !res.Completed() {
			return nil, fmt.Errorf("experiments: xmulti co-run did not complete")
		}
		return res, nil
	}

	alone, err := runCo([]core.JobSpec{{Name: "AMG", Trace: amg, Placement: placement.Contiguous}})
	if err != nil {
		return nil, err
	}
	baseline := alone.Jobs[0].MaxCommTime()
	r.progressf("ran AMG alone: %v", baseline)

	t := Table{
		Title:   fmt.Sprintf("AMG slowdown co-running with CR (AMG alone: %.4g ms)", baseline.Milliseconds()),
		Columns: []string{"amg_placement", "cr_placement", "amg_max_ms", "slowdown", "cr_max_ms"},
	}
	for _, pair := range []struct{ victim, bully placement.Policy }{
		{placement.Contiguous, placement.Contiguous},
		{placement.Contiguous, placement.RandomNode},
		{placement.RandomNode, placement.RandomNode},
		{placement.RandomCabinet, placement.RandomNode},
	} {
		res, err := runCo([]core.JobSpec{
			{Name: "AMG", Trace: amg, Placement: pair.victim},
			{Name: "CR", Trace: cr, Placement: pair.bully},
		})
		if err != nil {
			return nil, err
		}
		amgMax := res.Jobs[0].MaxCommTime()
		r.progressf("ran co-run %v/%v: AMG %v", pair.victim, pair.bully, amgMax)
		t.Rows = append(t.Rows, []string{
			pair.victim.String(), pair.bully.String(),
			fmtF(amgMax.Milliseconds()),
			fmt.Sprintf("%.2fx", float64(amgMax)/float64(baseline)),
			fmtF(res.Jobs[1].MaxCommTime().Milliseconds()),
		})
	}
	rep.Tables = append(rep.Tables, t)
	return r.finish(rep)
}

// xmultiBully returns the heavy CR co-runner sized to the scale.
func (r *Runner) xmultiBully() (*trace.Trace, error) {
	if r.opts.Scale == ScalePaper {
		return trace.CR(trace.CRConfig{Ranks: 1000, MessageBytes: 380 * trace.KB})
	}
	return trace.CR(trace.CRConfig{Ranks: 48, MessageBytes: 128 * trace.KB})
}
