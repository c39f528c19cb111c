// Package sched simulates a batch scheduler driving the machine — the
// "joint actions among applications and system" the paper's conclusion
// names as future work. Jobs arrive over simulated time, wait in a queue,
// are placed under their requested placement policy when enough nodes are
// free, replay their communication traces on the shared fabric (so queued
// placement decisions and inter-job interference interact, as in
// production), and release their nodes on completion.
//
// The discipline is FCFS, optionally with aggressive backfill: when the
// queue head does not fit, any later job that does fit may start. (True
// EASY backfill needs user runtime estimates, which traces do not carry.)
//
// The scheduler is a front end over core.Session, which owns the machine,
// the fabric, the free-node pool, job launch and the drain; the scheduler
// adds arrivals, the queue, and node release on completion.
package sched

import (
	"fmt"
	"sort"

	"dragonfly/internal/core"
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

// JobRequest is one job submission.
type JobRequest struct {
	Name      string
	Trace     *trace.Trace
	Placement placement.Policy
	Mapping   mapping.Policy
	MsgScale  float64
	Arrival   des.Time
}

// JobRecord is the scheduler's account of one completed job.
type JobRecord struct {
	Name       string
	Ranks      int
	Arrival    des.Time
	Start      des.Time // when the allocation was granted
	Finish     des.Time // when the last rank completed
	CommTimes  []des.Time
	Nodes      []topology.NodeID
	Backfilled bool // started ahead of an older queued job
}

// Wait returns the time spent queued.
func (j *JobRecord) Wait() des.Time { return j.Start - j.Arrival }

// Response returns arrival-to-finish time.
func (j *JobRecord) Response() des.Time { return j.Finish - j.Arrival }

// MaxCommTime returns the slowest rank's communication time.
func (j *JobRecord) MaxCommTime() des.Time { return metrics.MaxCommTime(j.CommTimes) }

// Config describes the machine and discipline.
type Config struct {
	Topology topology.Machine
	Params   network.Params
	Routing  routing.Mechanism
	Seed     int64
	Backfill bool
}

// Result is the outcome of a scheduling run.
type Result struct {
	Jobs     []JobRecord // in submission order
	Makespan des.Time
	Events   uint64
}

// MeanWait returns the average queue wait across jobs.
func (r *Result) MeanWait() des.Time {
	if len(r.Jobs) == 0 {
		return 0
	}
	var sum des.Time
	for i := range r.Jobs {
		sum += r.Jobs[i].Wait()
	}
	return sum / des.Time(len(r.Jobs))
}

type pendingJob struct {
	idx int // index into the submission order
	req JobRequest
}

// scheduler is the run state: the queue and records over one session.
type scheduler struct {
	*core.Session
	backfill bool
	rng      *des.RNG
	queue    []pendingJob
	records  []JobRecord
	err      error // the first job that could not start; stops scheduling
}

// Run executes a full scheduling trace: all jobs arrive, run, and complete.
// A job that cannot be placed or mapped when it would start (a zero-rank
// trace, an unknown policy) ends the run with an error naming it.
func Run(cfg Config, jobs []JobRequest) (*Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sched: no jobs submitted")
	}
	root := core.NewRoot(cfg.Params, cfg.Seed, "sched")
	defer root.Release()
	ses, err := core.NewSession(core.Config{Topology: cfg.Topology, Params: cfg.Params, Routing: cfg.Routing}, root)
	if err != nil {
		return nil, err
	}
	defer ses.Close()
	for i, j := range jobs {
		if j.Trace == nil {
			return nil, fmt.Errorf("sched: job %d (%q) has no trace", i, j.Name)
		}
		if j.Trace.NumRanks() > ses.Topo.NumNodes() {
			return nil, fmt.Errorf("sched: job %d (%q) needs %d nodes, machine has %d",
				i, j.Name, j.Trace.NumRanks(), ses.Topo.NumNodes())
		}
		if j.Arrival < 0 {
			return nil, fmt.Errorf("sched: job %d (%q) has negative arrival", i, j.Name)
		}
	}
	s := &scheduler{
		Session:  ses,
		backfill: cfg.Backfill,
		rng:      root.Stream("placement"),
		records:  make([]JobRecord, len(jobs)),
	}
	// Sort arrivals but remember submission order for the records.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].Arrival < jobs[order[b]].Arrival })
	for _, idx := range order {
		req := jobs[idx]
		s.records[idx] = JobRecord{Name: req.Name, Ranks: req.Trace.NumRanks(), Arrival: req.Arrival}
		s.Engine.At(req.Arrival, func() {
			s.queue = append(s.queue, pendingJob{idx: idx, req: req})
			s.trySchedule()
		})
	}
	if _, err := s.Drain(0); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	if s.err != nil {
		return nil, s.err
	}
	for i := range s.records {
		if s.records[i].Finish == 0 && s.records[i].CommTimes == nil {
			return nil, fmt.Errorf("sched: job %d (%q) never completed", i, s.records[i].Name)
		}
	}
	return &Result{Jobs: s.records, Makespan: s.Engine.Now(), Events: s.Engine.Processed()}, nil
}

// trySchedule starts every currently startable job per the discipline. A
// job that fails to start records the error and ends scheduling; jobs
// already running drain.
func (s *scheduler) trySchedule() {
	for s.err == nil {
		started := false
		for qi := 0; qi < len(s.queue); qi++ {
			job := s.queue[qi]
			if job.req.Trace.NumRanks() > s.Pool.Free() {
				if !s.backfill {
					return // strict FCFS: head blocks the queue
				}
				continue
			}
			if err := s.start(job, qi > 0); err != nil {
				s.err = fmt.Errorf("sched: job %d (%q): %w", job.idx, job.req.Name, err)
				return
			}
			s.queue = append(s.queue[:qi], s.queue[qi+1:]...)
			started = true
			break
		}
		if !started {
			return
		}
	}
}

// start allocates and launches one job.
func (s *scheduler) start(job pendingJob, backfilled bool) error {
	req := job.req
	nodes, err := placement.AllocateFrom(s.Pool, req.Placement, req.Trace.NumRanks(), s.rng)
	if err != nil {
		return err
	}
	nodes, err = mapping.Apply(req.Mapping, s.Topo, nodes, s.rng.Stream(fmt.Sprintf("map/%d", job.idx)))
	if err != nil {
		return err
	}
	rec := &s.records[job.idx]
	rec.Start = s.Engine.Now()
	rec.Nodes = nodes
	rec.Backfilled = backfilled

	var rep *workload.Replay
	rep, err = s.Launch(workload.Job{
		Name:     req.Name,
		Trace:    req.Trace,
		Nodes:    nodes,
		MsgScale: req.MsgScale,
		Start:    s.Engine.Now(),
		OnComplete: func(at des.Time) {
			rec.Finish = at
			rec.CommTimes = rep.CommTimes()
			s.Pool.Release(nodes)
			s.trySchedule()
		},
	})
	return err
}
