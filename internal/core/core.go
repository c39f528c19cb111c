// Package core orchestrates the paper's study: it wires a machine, places a
// job under one of the five placement policies, replays an application
// trace under minimal or adaptive routing — optionally against synthetic
// background traffic — and reports the four evaluation metrics. One Run is
// one cell of the paper's design space (Table I x application x load).
//
// A Session is the one simulation kernel: it builds the machine, fabric,
// faults, watchdog and auditor, launches jobs placed from its free-node
// pool, and drains the engine. Run (one job, optional background),
// RunMulti (a co-run of several jobs) and package sched's batch queue are
// front ends over it.
package core

import (
	"fmt"

	"dragonfly/internal/audit"
	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/mapping"
	"dragonfly/internal/metrics"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
	"dragonfly/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	Topology topology.Machine
	Params   network.Params

	Placement placement.Policy
	Routing   routing.Mechanism
	// Mapping assigns ranks to the allocated nodes; the zero value is the
	// paper's identity mapping. Alternatives implement the paper's
	// task-mapping future work (Sec. VI).
	Mapping mapping.Policy

	// Trace is the application to replay, as a flat op list; the replay
	// engine lowers it into the dependency-graph IR on the way in.
	Trace *trace.Trace
	// Graph is the application in dependency-graph IR (collective and
	// storage generators emit these directly). When set it takes precedence
	// over Trace.
	Graph *trace.Graph
	// MsgScale multiplies every message size (sensitivity study); 0 = 1.
	MsgScale float64

	// Background, when non-nil, runs the synthetic interference job on
	// every node not assigned to the application. It never finishes, so it
	// requires a MaxSimTime: the run ends when the application does or the
	// deadline passes, and a config without one is rejected.
	Background *workload.BackgroundConfig

	// Seed drives every random stream of the run.
	Seed int64

	// Faults, when non-nil and non-empty, degrades the fabric before (and,
	// with scheduled events, during) the run: the spec resolves to a
	// deterministic fault set, routing turns fault-aware, and traffic lost
	// on dead equipment is dropped with exact accounting (see Result's
	// DroppedPackets/RouteErr). An empty spec leaves the run byte-identical
	// to a healthy one — the fault machinery is not even wired in.
	Faults *faults.Spec

	// MaxSimTime aborts a run at this simulated time (0 = unlimited); the
	// result then carries the partial progress, with Completed = false.
	MaxSimTime des.Time

	// WatchdogEvents / WatchdogTime arm the DES livelock watchdog: the run
	// fails with a diagnostic (instead of spinning forever) once it executes
	// that many events or passes that virtual time. Zero disables either
	// limit. Unlike MaxSimTime, a trip is an error, not a partial result —
	// it means the simulator wedged, which healthy and faulted runs alike
	// must never do.
	WatchdogEvents uint64
	WatchdogTime   des.Time

	// Audit attaches the runtime invariant auditor (package audit): credit
	// conservation, byte/packet conservation, VC-class monotonicity, time
	// monotonicity, and per-NIC FIFO injection are checked on every event.
	// A violation fails the run; Result.Audit carries the check counts.
	// Auditing observes without perturbing: results are bit-identical to an
	// unaudited run.
	Audit bool
}

// Name returns the paper's abbreviation for the placement x routing cell,
// e.g. "cont-min" (Table I).
func (c Config) Name() string {
	return fmt.Sprintf("%s-%s", c.Placement, c.Routing)
}

// WorkloadApp returns the application name of the configured workload —
// Graph when set, Trace otherwise, "" when neither is configured.
func (c Config) WorkloadApp() string {
	if c.Graph != nil {
		return c.Graph.App
	}
	if c.Trace != nil {
		return c.Trace.App
	}
	return ""
}

// WorkloadRanks returns the rank count of the configured workload.
func (c Config) WorkloadRanks() int {
	if c.Graph != nil {
		return c.Graph.NumRanks()
	}
	if c.Trace != nil {
		return c.Trace.NumRanks()
	}
	return 0
}

// Result is the measured outcome of one run.
type Result struct {
	Config    Config
	Completed bool // every rank finished before MaxSimTime

	// CommTimes is the per-rank communication time (Sec. III-E).
	CommTimes []des.Time
	// AvgHops is the per-rank mean routers traversed by received packets.
	AvgHops []float64
	// Links snapshots every directed channel's traffic and saturation.
	Links []network.LinkStat
	// AppRouters is the set of routers serving the application's nodes.
	AppRouters map[topology.RouterID]bool
	// AppNodes is the allocation, rank-ordered.
	AppNodes []topology.NodeID

	// BackgroundPeakLoad is the Table II quantity for the run's background
	// job (0 without background).
	BackgroundPeakLoad int64

	// Duration is the simulated time consumed; Events the DES event count.
	Duration des.Time
	Events   uint64

	// Faulted-fabric outcome: traffic lost on dead equipment, and the first
	// injection-time routing failure (wrapping routing.ErrUnreachable) when
	// the placement spanned a partition. The run still drains and closes
	// every message, so unreachability degrades to an accounted lossy result
	// rather than an error. All zero/nil on a healthy fabric.
	DroppedPackets int64
	DroppedBytes   int64
	RouteErr       error

	// Audit carries the invariant auditor's check counts and any recorded
	// violations; nil unless Config.Audit was set.
	Audit *audit.Summary
}

// MaxCommTime returns the slowest rank's communication time.
func (r *Result) MaxCommTime() des.Time { return metrics.MaxCommTime(r.CommTimes) }

// CommTimesMs returns per-rank communication times in milliseconds.
func (r *Result) CommTimesMs() []float64 { return metrics.CommTimesMs(r.CommTimes) }

// LocalTraffic returns MiB per local channel, machine-wide or (restrict)
// only for channels leaving the application's routers.
func (r *Result) LocalTraffic(restrict bool) []float64 {
	return metrics.ChannelTraffic(r.Links, routing.Local, r.filter(restrict))
}

// GlobalTraffic returns MiB per global channel.
func (r *Result) GlobalTraffic(restrict bool) []float64 {
	return metrics.ChannelTraffic(r.Links, routing.Global, r.filter(restrict))
}

// LocalSaturation returns milliseconds of saturation per local channel.
func (r *Result) LocalSaturation(restrict bool) []float64 {
	return metrics.ChannelSaturation(r.Links, routing.Local, r.filter(restrict))
}

// GlobalSaturation returns milliseconds of saturation per global channel.
func (r *Result) GlobalSaturation(restrict bool) []float64 {
	return metrics.ChannelSaturation(r.Links, routing.Global, r.filter(restrict))
}

func (r *Result) filter(restrict bool) map[topology.RouterID]bool {
	if restrict {
		return r.AppRouters
	}
	return nil
}

// Run executes one simulation: one job placed on an empty machine, with
// background traffic, when configured, on every node it leaves free.
func Run(cfg Config) (*Result, error) {
	if cfg.Trace == nil && cfg.Graph == nil {
		return nil, fmt.Errorf("core: config has no workload (set Trace or Graph)")
	}
	root := NewRoot(cfg.Params, cfg.Seed, "core")
	defer root.Release()
	s, err := NewSession(cfg, root)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	nodes, err := placement.AllocateFrom(s.Pool, cfg.Placement, cfg.WorkloadRanks(), root.Stream("placement"))
	if err != nil {
		return nil, err
	}
	nodes, err = mapping.Apply(cfg.Mapping, s.Topo, nodes, root.Stream("mapping"))
	if err != nil {
		return nil, err
	}
	var peak int64
	if cfg.Background != nil {
		if peak, err = s.Background(*cfg.Background, root.Stream("background")); err != nil {
			return nil, err
		}
	}
	rep, err := s.Launch(workload.Job{
		Name:     cfg.WorkloadApp(),
		Graph:    cfg.Graph,
		Trace:    cfg.Trace,
		Nodes:    nodes,
		MsgScale: cfg.MsgScale,
	})
	if err != nil {
		return nil, err
	}
	sum, err := s.Drain(cfg.MaxSimTime)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", cfg.Name(), err)
	}

	res := &Result{
		Config:             cfg,
		Completed:          rep.Done(),
		CommTimes:          rep.CommTimes(),
		AvgHops:            rep.AvgHopsPerRank(),
		Links:              s.Fabric.LinkStats(),
		AppRouters:         metrics.RouterSet(s.Topo, rep.Nodes()),
		AppNodes:           rep.Nodes(),
		BackgroundPeakLoad: peak,
		Duration:           s.Engine.Now(),
		Events:             s.Engine.Processed(),
		RouteErr:           s.Fabric.RouteError(),
		Audit:              sum,
	}
	res.DroppedPackets, res.DroppedBytes = s.Fabric.DropStats()
	return res, nil
}
