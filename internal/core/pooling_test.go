package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
	"dragonfly/internal/workload"
)

// poolCase is one cell of the allocation-avoidance equivalence suites.
type poolCase struct {
	name  string
	cfg   Config
	lossy bool // the run must drop bytes, so messages close lossily
}

// poolingCases are the cells the allocation-avoidance machinery — the
// fabric's packet, credit-token and message free lists, the router's hop
// arena, and the engine and fabric storage recycled across runs — must be
// invisible to, for both routing mechanisms (minimal exercises the arena,
// adaptive additionally the candidate scratch, the Valiant mid-router draw
// ordering, and arena recycling of losing candidates). Background cells
// recycle messages whose callbacks are nil and whose closes interleave
// with the app's; the dynamic-failure cell recycles messages that close
// lossily, where the close also completes the send side.
func poolingCases(t *testing.T) []poolCase {
	tr := miniCR(t)
	var cases []poolCase
	for _, cell := range []Cell{
		{placement.RandomNode, routing.Minimal},
		{placement.RandomNode, routing.Adaptive},
		{placement.Contiguous, routing.Adaptive},
		// qadaptive routes through the same candidate scratch and arena, and
		// its Q-table must see the same decision sequence either way.
		{placement.RandomNode, routing.QAdaptive},
	} {
		cases = append(cases, poolCase{name: cell.Name(), cfg: MiniConfig(tr, cell, 11)})
	}
	return append(cases,
		poolCase{name: "uniform-background", cfg: uniformCell(t)},
		poolCase{name: "bursty-background", cfg: burstyCell(t)},
		poolCase{name: "dynamic-group-failure", cfg: failingCell(t), lossy: true},
	)
}

func uniformCell(t *testing.T) Config {
	cfg := MiniConfig(miniCR(t), Cell{placement.RandomNode, routing.Adaptive}, 11)
	cfg.Background = &workload.BackgroundConfig{
		Kind: workload.UniformRandom, MsgBytes: 32 * 1024, Interval: 5 * des.Microsecond,
	}
	return cfg
}

func burstyCell(t *testing.T) Config {
	cfg := MiniConfig(miniCR(t), Cell{placement.Contiguous, routing.Adaptive}, 11)
	cfg.Background = &workload.BackgroundConfig{
		Kind: workload.Bursty, MsgBytes: 8 * 1024, Interval: 8 * des.Microsecond, FanOut: 7,
	}
	return cfg
}

// failingCell loses group 1 from 2 µs to 20 µs.
func failingCell(t *testing.T) Config {
	cfg := MiniConfig(miniCR(t), Cell{placement.RandomNode, routing.Adaptive}, 11)
	cfg.Faults = &faults.Spec{Events: []faults.Event{
		{At: 2_000, IsGroup: true, Group: 1},
		{At: 20_000, IsGroup: true, Group: 1, Repair: true},
	}}
	cfg.WatchdogEvents = 200_000_000
	return cfg
}

// plusMiniCell is an app-only cell on the Dragonfly+ mini machine.
func plusMiniCell(t *testing.T) Config {
	cfg := MiniConfig(miniCR(t), Cell{placement.RandomNode, routing.Adaptive}, 11)
	cfg.Topology = topology.PlusMini()
	return cfg
}

// freshRun runs cfg under the auditor on the allocate-fresh reference: no
// free lists, no hop arena, and engine and fabric storage that no earlier
// run used.
func freshRun(t *testing.T, name string, cfg Config) *Result {
	t.Helper()
	cfg.Audit = true
	cfg.Params.NoPacketPool = true
	cfg.Params.Route.NoCache = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s fresh: %v", name, err)
	}
	return res
}

// requireSameRun fails unless got matches the reference want in every
// field that reusing memory could perturb, the audit counts included.
func requireSameRun(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Duration != want.Duration || got.Events != want.Events {
		t.Fatalf("%s: run (%v, %d events) differs from fresh (%v, %d events)",
			name, got.Duration, got.Events, want.Duration, want.Events)
	}
	if got.DroppedPackets != want.DroppedPackets || got.DroppedBytes != want.DroppedBytes {
		t.Errorf("%s: drops (%d, %d) differ from fresh (%d, %d)", name,
			got.DroppedPackets, got.DroppedBytes, want.DroppedPackets, want.DroppedBytes)
	}
	if !reflect.DeepEqual(got.CommTimes, want.CommTimes) {
		t.Errorf("%s: per-rank comm times differ from fresh", name)
	}
	if !reflect.DeepEqual(got.AvgHops, want.AvgHops) {
		t.Errorf("%s: per-rank hop averages differ from fresh", name)
	}
	if !reflect.DeepEqual(got.Links, want.Links) {
		t.Errorf("%s: link statistics differ from fresh", name)
	}
	if got.Audit == nil || len(got.Audit.Violations) != 0 {
		t.Errorf("%s: auditor flagged the run: %v", name, got.Audit)
	} else if got.Audit.Stats != want.Audit.Stats {
		t.Errorf("%s: audit counts %+v differ from fresh %+v", name, got.Audit.Stats, want.Audit.Stats)
	}
}

// TestPoolingDoesNotChangeResults: a pooled run matches the allocate-fresh
// reference exactly.
func TestPoolingDoesNotChangeResults(t *testing.T) {
	for _, c := range poolingCases(t) {
		cfg := c.cfg
		cfg.Audit = true
		pooled, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s pooled: %v", c.name, err)
		}
		if !pooled.Completed {
			t.Fatalf("%s: pooled run did not complete", c.name)
		}
		if c.lossy && pooled.DroppedBytes == 0 {
			t.Fatalf("%s: no bytes dropped, so no message closed lossily", c.name)
		}
		requireSameRun(t, c.name, pooled, freshRun(t, c.name, c.cfg))
	}
}

// closeBusySession runs cfg's job, and its background if any, on a session
// until the job finishes or cfg.MaxSimTime passes, then closes the session
// with work still in flight. It fails unless events are still pending and
// messages still queued at NICs, so the storage the session hands on is as
// dirty as a run leaves it.
func closeBusySession(t *testing.T, name string, cfg Config) {
	t.Helper()
	root := des.NewRNG(cfg.Seed, "core")
	s, err := NewSession(cfg, root)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	nodes, err := placement.AllocateFrom(s.Pool, cfg.Placement, cfg.WorkloadRanks(), root.Stream("placement"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if cfg.Background != nil {
		if _, err := s.Background(*cfg.Background, root.Stream("background")); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := s.Launch(workload.Job{Name: cfg.WorkloadApp(), Trace: cfg.Trace, Nodes: nodes}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, err := s.Drain(cfg.MaxSimTime); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if s.Engine.Pending() == 0 || s.Fabric.QueuedMessages() == 0 {
		t.Fatalf("%s: closing with %d pending events and %d queued messages; want both > 0",
			name, s.Engine.Pending(), s.Fabric.QueuedMessages())
	}
	s.Close()
}

// quickMachine is the quick-scale XC40 machine of the experiments: 5 groups
// x (2x8 routers) x 2 nodes.
func quickMachine() topology.Config {
	return topology.Config{Groups: 5, Rows: 2, Cols: 8, NodesPerRouter: 2, GlobalPortsPerRouter: 4, ChassisPerCabinet: 2}
}

// prelude is a session run just before a pooling case, leaving the pools
// holding storage, a chooser's tables and replays that another run dirtied.
type prelude struct {
	name string
	run  func(t *testing.T, c poolCase)
}

// preludes lists what the session before a case did: closed a bursty cell
// with packets in flight; closed a group outage cut off mid-run, its job's
// ranks half done; ran the case's graph on each other machine under another
// placement; replayed a different graph; ran qadaptive under mixed global,
// local and router faults, whose chooser walked live trees. The first two
// and the machine runs replay the case's own graph, so the case takes back
// a replay of its graph that ran on another node map, or stopped mid-run.
func preludes(t *testing.T) []prelude {
	ps := []prelude{
		{"bursty-background", func(t *testing.T, c poolCase) {
			cfg := burstyCell(t)
			cfg.Trace = c.cfg.Trace
			closeBusySession(t, "bursty-background", cfg)
		}},
		{"group-failure-cut", func(t *testing.T, c poolCase) {
			cfg := failingCell(t)
			cfg.Trace = c.cfg.Trace
			cfg.MaxSimTime = 10 * des.Microsecond
			closeBusySession(t, "group-failure-cut", cfg)
		}},
	}
	for _, m := range []topology.Machine{quickMachine(), topology.Mini(), topology.PlusMini()} {
		ps = append(ps, prelude{"machine " + m.Label(), func(t *testing.T, c poolCase) {
			if m.CanonicalSpec() == c.cfg.Topology.CanonicalSpec() {
				return
			}
			cfg := MiniConfig(c.cfg.Trace, Cell{placement.Contiguous, routing.Adaptive}, 5)
			cfg.Topology = m
			runOK(t, "machine "+m.Label(), cfg)
		}})
	}
	ring, err := trace.RingAllReduce(trace.RingAllReduceConfig{Ranks: 24, Bytes: 64 * trace.KB, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	mixed := &faults.Spec{GlobalFrac: 0.1, LocalFrac: 0.1, Routers: 2, Seed: 4}
	return append(ps,
		prelude{"other-graph", func(t *testing.T, _ poolCase) {
			cfg := MiniConfig(nil, Cell{placement.RandomNode, routing.Adaptive}, 9)
			cfg.Graph = ring
			runOK(t, "other-graph", cfg)
		}},
		prelude{"qadaptive-mixed-faults", func(t *testing.T, c poolCase) {
			cfg := MiniConfig(c.cfg.Trace, Cell{placement.RandomNode, routing.QAdaptive}, 13)
			cfg.Faults = mixed
			runOK(t, "qadaptive-mixed-faults", cfg)
		}},
	)
}

// runOK runs cfg and fails the test on an error.
func runOK(t *testing.T, name string, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestRecycledStorageDoesNotChangeResults: every pooling case, and a
// Dragonfly+ cell, run right after each prelude session matches its run on
// fresh storage. The preludes leave engine and fabric storage, a chooser's
// tables (gateway lists of another machine, next-hop rows holding live
// trees, arena hop slices released from packets in flight) and replays of
// the case's graph (another node map, a run stopped mid-way) in the pools.
func TestRecycledStorageDoesNotChangeResults(t *testing.T) {
	cases := append(poolingCases(t), poolCase{name: "dfplus-mini", cfg: plusMiniCell(t)})
	pre := preludes(t)
	for _, c := range cases {
		fresh := freshRun(t, c.name, c.cfg)
		cfg := c.cfg
		cfg.Audit = true
		for _, p := range pre {
			p.run(t, c)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s after %s: %v", c.name, p.name, err)
			}
			requireSameRun(t, c.name+" after "+p.name, res, fresh)
		}
	}
}

// TestResultNodesOutliveRecycledReplays: the node maps a Result and a
// JobResult report stay as they were while later runs of the same graph
// take back the replays that produced them.
func TestResultNodesOutliveRecycledReplays(t *testing.T) {
	tr := miniCR(t)
	first := runOK(t, "first", MiniConfig(tr, Cell{placement.RandomNode, routing.Adaptive}, 1))
	multi, err := RunMulti(MultiConfig{
		Topology: topology.Mini(), Params: first.Config.Params, Routing: routing.Minimal, Seed: 2,
		Jobs: []JobSpec{{Name: "a", Trace: tr, Placement: placement.RandomNode}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]topology.NodeID(nil), first.AppNodes...)
	wantJob := append([]topology.NodeID(nil), multi.Jobs[0].Nodes...)
	for seed := int64(3); seed < 13; seed++ {
		for _, pol := range []placement.Policy{placement.Contiguous, placement.RandomNode} {
			runOK(t, "later", MiniConfig(tr, Cell{pol, routing.Minimal}, seed))
		}
	}
	if !reflect.DeepEqual(first.AppNodes, want) {
		t.Errorf("Result.AppNodes changed under later runs of its graph: %v, was %v", first.AppNodes, want)
	}
	if !reflect.DeepEqual(multi.Jobs[0].Nodes, wantJob) {
		t.Errorf("JobResult.Nodes changed under later runs of its graph: %v, was %v", multi.Jobs[0].Nodes, wantJob)
	}
}

// resultDigest hashes what a run measured: per-rank comm times and hops,
// every link's traffic and saturation, drops, duration and event count.
func resultDigest(res *Result) string {
	h := fnv.New64a()
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for i := range res.CommTimes {
		put(int64(res.CommTimes[i]))
		put(int64(math.Float64bits(res.AvgHops[i])))
	}
	for _, l := range res.Links {
		put(l.Bytes)
		put(l.Packets)
		put(int64(l.SatTime))
	}
	put(res.DroppedPackets)
	put(res.DroppedBytes)
	put(int64(res.Duration))
	put(int64(res.Events))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestConcurrentRunsRecycleStorage runs a mixed cell list — both mini
// machines, uniform and bursty background, a dynamic fault, and four cells
// sharing one graph across both machines, placements and routings — through
// Run from four goroutines at once, each starting at a different cell, so
// the goroutines hand engine, fabric and chooser storage, and replays of
// the shared graph, to one another through the shared pools as farm
// workers do. Every result must digest as its cell's sequential run does.
// CI runs it under the race detector with -count=10.
func TestConcurrentRunsRecycleStorage(t *testing.T) {
	shared := miniCR(t)
	onPlus := MiniConfig(shared, Cell{placement.Contiguous, routing.Adaptive}, 8)
	onPlus.Topology = topology.PlusMini()
	sharedBursty := burstyCell(t)
	sharedBursty.Trace = shared
	cfgs := []Config{
		MiniConfig(miniCR(t), Cell{placement.RandomNode, routing.Minimal}, 3),
		plusMiniCell(t),
		uniformCell(t),
		burstyCell(t),
		failingCell(t),
		MiniConfig(shared, Cell{placement.RandomNode, routing.QAdaptive}, 6),
		MiniConfig(shared, Cell{placement.Contiguous, routing.Minimal}, 7),
		onPlus,
		sharedBursty,
	}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		want[i] = resultDigest(res)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range cfgs {
				i := (w + k) % len(cfgs)
				res, err := Run(cfgs[i])
				if err != nil {
					t.Errorf("worker %d cell %d: %v", w, i, err)
					return
				}
				if got := resultDigest(res); got != want[i] {
					t.Errorf("worker %d cell %d: digest %s, sequential run %s", w, i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}
