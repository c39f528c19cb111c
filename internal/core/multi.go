package core

import (
	"fmt"

	"dragonfly/internal/audit"
	"dragonfly/internal/des"
	"dragonfly/internal/mapping"
	"dragonfly/internal/metrics"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
	"dragonfly/internal/workload"
)

// JobSpec is one application of a multijob co-run: the production scenario
// the paper's interference study models with synthetic traffic, and the one
// its prior "bully" study [15] measured with real trace pairs. Jobs are
// placed in order from the machine's free pool, so earlier jobs fragment
// the allocation of later ones exactly as a batch scheduler would.
type JobSpec struct {
	Name      string
	Trace     *trace.Trace
	Placement placement.Policy
	// Mapping assigns the job's ranks to its allocated nodes (zero value:
	// identity, the paper's setup).
	Mapping  mapping.Policy
	MsgScale float64
	Start    des.Time
}

// MultiConfig describes a co-run of several applications sharing the
// machine under one routing mechanism.
type MultiConfig struct {
	Topology topology.Machine
	Params   network.Params
	Routing  routing.Mechanism
	Jobs     []JobSpec
	Seed     int64
	// MaxSimTime aborts the co-run (0 = unlimited).
	MaxSimTime des.Time
	// Audit attaches the runtime invariant auditor; see Config.Audit.
	Audit bool
}

// JobResult carries one job's measurements from a co-run.
type JobResult struct {
	Name      string
	Placement placement.Policy
	Completed bool
	CommTimes []des.Time
	AvgHops   []float64
	Nodes     []topology.NodeID
	Routers   map[topology.RouterID]bool
}

// MaxCommTime returns the job's slowest rank time.
func (j *JobResult) MaxCommTime() des.Time { return metrics.MaxCommTime(j.CommTimes) }

// MultiResult is the outcome of a co-run.
type MultiResult struct {
	Jobs     []JobResult
	Links    []network.LinkStat
	Duration des.Time
	Events   uint64
	// Audit is the invariant auditor's summary; nil unless MultiConfig.Audit.
	Audit *audit.Summary
}

// Completed reports whether every job finished.
func (m *MultiResult) Completed() bool {
	for _, j := range m.Jobs {
		if !j.Completed {
			return false
		}
	}
	return true
}

// RunMulti executes a multijob co-run: every job is placed from the shared
// free pool in spec order, all replays run on one fabric, and the engine
// drains (or, with MaxSimTime, runs until the last job completes or the
// deadline passes). Per-job communication times then expose inter-job
// interference directly.
func RunMulti(cfg MultiConfig) (*MultiResult, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("core: co-run needs at least one job")
	}
	root := NewRoot(cfg.Params, cfg.Seed, "core/multi")
	defer root.Release()
	s, err := NewSession(Config{Topology: cfg.Topology, Params: cfg.Params, Routing: cfg.Routing, Audit: cfg.Audit}, root)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	replays := make([]*workload.Replay, len(cfg.Jobs))
	for i, spec := range cfg.Jobs {
		if spec.Trace == nil {
			return nil, fmt.Errorf("core: job %d (%q) has no trace", i, spec.Name)
		}
		nodes, err := placement.AllocateFrom(s.Pool, spec.Placement, spec.Trace.NumRanks(),
			root.Stream(fmt.Sprintf("placement/%d", i)))
		if err == nil {
			nodes, err = mapping.Apply(spec.Mapping, s.Topo, nodes, root.Stream(fmt.Sprintf("mapping/%d", i)))
		}
		if err == nil {
			replays[i], err = s.Launch(workload.Job{
				Name:     spec.Name,
				Trace:    spec.Trace,
				Nodes:    nodes,
				MsgScale: spec.MsgScale,
				Start:    spec.Start,
			})
		}
		if err != nil {
			return nil, fmt.Errorf("core: job %d (%q): %w", i, spec.Name, err)
		}
	}
	sum, err := s.Drain(cfg.MaxSimTime)
	if err != nil {
		return nil, fmt.Errorf("core: co-run: %w", err)
	}

	out := &MultiResult{
		Links:    s.Fabric.LinkStats(),
		Duration: s.Engine.Now(),
		Events:   s.Engine.Processed(),
		Audit:    sum,
	}
	for i, rep := range replays {
		out.Jobs = append(out.Jobs, JobResult{
			Name:      cfg.Jobs[i].Name,
			Placement: cfg.Jobs[i].Placement,
			Completed: rep.Done(),
			CommTimes: rep.CommTimes(),
			AvgHops:   rep.AvgHopsPerRank(),
			Nodes:     rep.Nodes(),
			Routers:   metrics.RouterSet(s.Topo, rep.Nodes()),
		})
	}
	return out, nil
}
