package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/des"
	"dragonfly/internal/mapping"
	"dragonfly/internal/metrics"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// span is one timed call into a layer. Spans of one cell share Cell; Parent
// is the enclosing span's ID, -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans and the layer counters of a traced run in memory.
// A nil tracer records nothing, so untraced code paths share the calls.
// Methods are safe for concurrent use by the sweep's workers.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	cells int // cell IDs handed out
	sims  int // cells simulated through run
	cnt   counts
}

// counts are the per-layer work counters, summed over simulated cells.
type counts struct {
	events, loopNs       int64
	pendingSum, pendingN int64
	pendingPeak          int
	packets, credits     int64
	routes, nonminimal   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// cell hands out the ID that groups the spans of one cell.
func (t *tracer) cell() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cells++
	return t.cells - 1
}

func (t *tracer) start(name string, parent, cell int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Cell: cell, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) add(c counts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sims++
	t.cnt.events += c.events
	t.cnt.loopNs += c.loopNs
	t.cnt.pendingSum += c.pendingSum
	t.cnt.pendingN += c.pendingN
	if c.pendingPeak > t.cnt.pendingPeak {
		t.cnt.pendingPeak = c.pendingPeak
	}
	t.cnt.packets += c.packets
	t.cnt.credits += c.credits
	t.cnt.routes += c.routes
	t.cnt.nonminimal += c.nonminimal
}

// meanMs returns the mean duration of the named spans in milliseconds, 0
// when none were recorded.
func (t *tracer) meanMs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum, n int64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// counter is the network.Observer of a traced cell: it counts packets,
// credit returns, and routes (with how many leave minimal routing's single
// global hop) where the fabric does the work.
type counter struct{ c *counts }

func (o counter) LinkAdded(int, routing.LinkKind, int, int) {}
func (o counter) BufferReserve(int, int, int, int)          {}
func (o counter) BufferRelease(int, int, int, int)          { o.c.credits++ }
func (o counter) RouteComputed(_, _ topology.NodeID, p routing.Path) {
	o.c.routes++
	if p.GlobalHops() > 1 {
		o.c.nonminimal++
	}
}
func (o counter) MessageQueued(uint64, topology.NodeID, topology.NodeID, int64) {}
func (o counter) PacketInjected(uint64, topology.NodeID, int, int64)            { o.c.packets++ }
func (o counter) PacketDelivered(uint64, topology.NodeID, int, int64)           {}
func (o counter) PacketDropped(uint64, int, int64, bool)                        {}

// run is core.Run rebuilt from the layers' public calls, with a span around
// each call and counters on the fabric and engine. Its result must digest
// identically to core.Run's on the same config; the benchmark checks that for
// every traced cell. Audited and fault-injected configs are refused: no
// workload uses them.
func (t *tracer) run(cfg core.Config, parent, cell int) (*core.Result, error) {
	if (cfg.Trace == nil && cfg.Graph == nil) || cfg.Topology == nil {
		return nil, errors.New("dfperf: config has no workload or machine")
	}
	if cfg.Audit || (cfg.Faults != nil && !cfg.Faults.Empty()) {
		return nil, errors.New("dfperf: traced runs take healthy, unaudited configs only")
	}
	root := t.start("core.run", parent, cell)
	defer t.end(root)

	sp := t.start("topology.build", root, cell)
	topo, err := cfg.Topology.Build()
	t.end(sp)
	if err != nil {
		return nil, err
	}

	sp = t.start("network.new", root, cell)
	eng := des.New()
	rng := des.NewRNG(cfg.Seed, "core")
	fab, err := network.New(eng, topo, cfg.Params, cfg.Routing, rng.Stream("fabric"))
	t.end(sp)
	if err != nil {
		return nil, err
	}
	if cfg.WatchdogEvents > 0 || cfg.WatchdogTime > 0 {
		eng.SetWatchdog(cfg.WatchdogEvents, cfg.WatchdogTime, fab.WatchdogDiagnostic)
	}
	var c counts
	fab.SetObserver(counter{&c})
	eng.SetObserver(func(des.Time) {
		p := eng.Pending()
		c.pendingSum += int64(p)
		c.pendingN++
		if p > c.pendingPeak {
			c.pendingPeak = p
		}
	})

	sp = t.start("placement.alloc", root, cell)
	nodes, err := placement.Allocate(topo, cfg.Placement, cfg.WorkloadRanks(), rng.Stream("placement"))
	if err == nil {
		nodes, err = mapping.Apply(cfg.Mapping, topo, nodes, rng.Stream("mapping"))
	}
	t.end(sp)
	if err != nil {
		return nil, err
	}

	sp = t.start("workload.new_replay", root, cell)
	rep, err := workload.NewReplay(fab, workload.Job{
		Name:     cfg.WorkloadApp(),
		Graph:    cfg.Graph,
		Trace:    cfg.Trace,
		Nodes:    nodes,
		MsgScale: cfg.MsgScale,
	})
	var bg *workload.Background
	var peak int64
	if err == nil && cfg.Background != nil {
		err = cfg.Background.Validate()
		if err == nil {
			rest := placement.Remaining(topo, nodes)
			bg = workload.StartBackground(fab, *cfg.Background, rest, rng.Stream("background"))
			peak = cfg.Background.PeakLoad(len(rest))
		}
	}
	t.end(sp)
	if err != nil {
		return nil, err
	}

	sp = t.start("des.loop", root, cell)
	loop0 := time.Now()
	rep.Start()
	if bg == nil && cfg.MaxSimTime == 0 {
		eng.Run()
	} else {
		for !rep.Done() {
			if cfg.MaxSimTime > 0 && eng.Now() >= cfg.MaxSimTime {
				break
			}
			if !eng.Step() {
				break
			}
		}
	}
	if bg != nil {
		bg.Stop()
	}
	c.loopNs = time.Since(loop0).Nanoseconds()
	t.end(sp)
	if err := eng.Tripped(); err != nil {
		return nil, fmt.Errorf("dfperf: %s: %w", cfg.Name(), err)
	}

	sp = t.start("network.finish", root, cell)
	fab.FinishStats()
	links := fab.LinkStats()
	t.end(sp)

	res := &core.Result{
		Config:             cfg,
		Completed:          rep.Done(),
		CommTimes:          rep.CommTimes(),
		AvgHops:            rep.AvgHopsPerRank(),
		Links:              links,
		AppRouters:         metrics.RouterSet(topo, rep.Nodes()),
		AppNodes:           rep.Nodes(),
		BackgroundPeakLoad: peak,
		Duration:           eng.Now(),
		Events:             eng.Processed(),
		RouteErr:           fab.RouteError(),
	}
	res.DroppedPackets, res.DroppedBytes = fab.DropStats()
	c.events = int64(res.Events)
	t.add(c)
	return res, nil
}
