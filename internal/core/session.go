package core

import (
	"fmt"

	"dragonfly/internal/audit"
	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// Session is one simulation on one machine: the kernel under Run, RunMulti
// and sched.Run. It runs on the built machine every session of that shape
// shares (topology.Shared), and owns the engine, the fabric with its fault
// wiring, watchdog and auditor, and the pool of free nodes; it launches
// jobs onto the fabric and drains the engine. Front ends keep their own RNG
// roots (NewRoot) and stream names and do their own placement (from Pool)
// and mapping: the session draws one stream, the fabric's, first from the
// root it is given. Once a front end has copied its result out, Close hands
// the engine's, fabric's and chooser's storage to the next session, and
// each replay to the next run of its graph; then the front end releases its
// root, and with it every stream the run drew from.
type Session struct {
	Topo   topology.Interconnect
	Engine *des.Engine
	Fabric *network.Fabric
	Pool   *placement.Pool

	aud     *audit.Auditor
	bg      *workload.Background
	replays []*workload.Replay // every job launched, for Close to hand back
	live    int                // launched jobs whose last rank has not finished
	// haltOnDone makes the last job's completion halt the engine: Drain
	// sets it when the run ends with its jobs, not with an empty queue.
	haltOnDone bool
}

// NewSession sets up the machine cfg describes — its Topology, Params,
// Routing, Faults, watchdog limits and Audit; the workload fields are the
// front end's business — drawing the fabric's stream first from root. It
// rejects background traffic without a MaxSimTime: the background never
// finishes, so a job that cannot finish would keep the run going forever.
func NewSession(cfg Config, root *des.RNG) (*Session, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("core: config has no machine (set Topology)")
	}
	if cfg.Background != nil && cfg.MaxSimTime <= 0 {
		return nil, fmt.Errorf("core: background traffic needs a deadline (set MaxSimTime)")
	}
	// Params.NoPacketPool is the allocate-fresh reference: a machine built
	// for this session, not the shared one, a zero engine, not a recycled
	// one, and (in network.New) fresh fabric storage.
	build := topology.Shared
	if cfg.Params.NoPacketPool {
		build = topology.Machine.Build
	}
	topo, err := build(cfg.Topology)
	if err != nil {
		return nil, err
	}
	var eng *des.Engine
	if cfg.Params.NoPacketPool {
		eng = new(des.Engine)
	} else {
		eng = des.New()
	}
	// A non-empty fault spec degrades the fabric; an empty one is skipped
	// entirely so healthy runs stay byte-identical with or without the flag.
	var fset *faults.Set
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		if fset, err = faults.Resolve(cfg.Faults, topo); err != nil {
			return nil, err
		}
		cfg.Params.Route.Health = fset
	}
	fab, err := network.New(eng, topo, cfg.Params, cfg.Routing, root.Stream("fabric"))
	if err != nil {
		return nil, err
	}
	if fset != nil {
		for _, ev := range fset.Events() {
			eng.At(ev.At, func() {
				fset.Apply(ev)
				fab.ApplyHealthChange(ev.At, ev.String())
			})
		}
	}
	if cfg.WatchdogEvents > 0 || cfg.WatchdogTime > 0 {
		eng.SetWatchdog(cfg.WatchdogEvents, cfg.WatchdogTime, fab.WatchdogDiagnostic)
	}
	s := &Session{Topo: topo, Engine: eng, Fabric: fab, Pool: placement.NewPool(topo)}
	if cfg.Audit {
		s.aud = audit.New(topo)
		fab.SetObserver(s.aud)
		eng.SetObserver(s.aud.EventExecuted)
	}
	return s, nil
}

// NewRoot returns a front end's root stream, from which every stream of
// its run derives: a recycled one, to be released after Close, or with
// p.NoPacketPool a fresh one whose derived streams are fresh too.
func NewRoot(p network.Params, seed int64, name string) *des.RNG {
	if p.NoPacketPool {
		return des.FreshRNG(seed, name)
	}
	return des.NewRNG(seed, name)
}

// Background runs the synthetic interference job on every node still free
// in the pool until Drain, and returns its Table II peak load. Call it only
// on a session whose Config set Background, so NewSession has checked that
// Drain's deadline bounds it.
func (s *Session) Background(cfg workload.BackgroundConfig, rng *des.RNG) (int64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	free := s.Pool.FreeNodes()
	s.bg = workload.StartBackground(s.Fabric, cfg, free, rng)
	return cfg.PeakLoad(len(free)), nil
}

// Launch starts a placed job at job.Start. The session counts it live until
// its last rank finishes, when job.OnComplete (if any) still fires; a job
// it launches keeps the drain going.
func (s *Session) Launch(job workload.Job) (*workload.Replay, error) {
	onComplete := job.OnComplete
	job.OnComplete = func(at des.Time) {
		s.live--
		if onComplete != nil {
			onComplete(at)
		}
		if s.live == 0 && s.haltOnDone {
			s.Engine.Halt()
		}
	}
	rep, err := workload.NewReplay(s.Fabric, job)
	if err != nil {
		return nil, err
	}
	s.replays = append(s.replays, rep)
	s.live++
	rep.Start()
	return rep, nil
}

// Drain runs the engine and closes the run. With neither background traffic
// nor a deadline (0 = none) the queue drains by itself; otherwise the engine
// runs until every launched job has finished or the clock reaches the
// deadline, which background traffic requires (see NewSession): it runs the
// events before the deadline, halting after the one in which the last job
// finishes, then the first event at or past the deadline. Drain then stops
// the background, reports a watchdog trip, finalizes the link statistics
// and closes the audit, returning its summary (nil unless auditing).
func (s *Session) Drain(deadline des.Time) (*audit.Summary, error) {
	eng := s.Engine
	switch {
	case s.bg == nil && deadline == 0:
		eng.Run()
	case s.live == 0:
		// No job to wait for.
	case eng.Now() < deadline:
		s.haltOnDone = true
		if eng.RunUntil(deadline - 1); s.live > 0 {
			eng.Step()
		}
	}
	if s.bg != nil {
		s.bg.Stop()
	}
	if err := eng.Tripped(); err != nil {
		return nil, err
	}
	s.Fabric.FinishStats()
	if s.aud == nil {
		return nil, nil
	}
	s.aud.Finish(eng.Pending() == 0)
	sum := s.aud.Summary()
	return &sum, s.aud.Err()
}

// Close returns the engine's, the fabric's and its chooser's storage, with
// every pointer in it cleared, to their packages' pools for later sessions,
// then hands each replay it launched to its graph's pool. The engine and
// fabric go first: their pending events and queued messages hold the
// replays' callbacks. Params.NoPacketPool leaves the engine, fabric and
// replays to the collector, Route.NoCache the chooser. Call it once every
// result has been copied out: the session, its Engine and Fabric, and the
// replays launched on it must not be used after.
func (s *Session) Close() {
	if !s.Fabric.Params().NoPacketPool {
		s.Engine.Close()
	}
	s.Fabric.Close()
	for _, rep := range s.replays {
		rep.Close()
	}
	s.Engine, s.Fabric, s.bg, s.replays = nil, nil, nil, nil
}
