package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/mapping"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
)

func multiConfig(t *testing.T, jobs []JobSpec) MultiConfig {
	t.Helper()
	return MultiConfig{
		Topology: topology.Mini(),
		Params:   network.DefaultParams(),
		Routing:  routing.Adaptive,
		Jobs:     jobs,
		Seed:     1,
	}
}

func smallCR(t *testing.T, ranks int, bytes int64) *trace.Trace {
	t.Helper()
	tr, err := trace.CR(trace.CRConfig{Ranks: ranks, MessageBytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func smallAMG(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.AMG(trace.AMGConfig{X: 3, Y: 3, Z: 3, Cycles: 2, Levels: 3, PeakBytes: 8 * trace.KB})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunMultiTwoJobsComplete(t *testing.T) {
	res, err := RunMulti(multiConfig(t, []JobSpec{
		{Name: "cr", Trace: smallCR(t, 16, 32*trace.KB), Placement: placement.RandomNode},
		{Name: "amg", Trace: smallAMG(t), Placement: placement.Contiguous},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed() {
		t.Fatal("co-run did not complete")
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	seen := map[topology.NodeID]bool{}
	for _, j := range res.Jobs {
		if j.MaxCommTime() <= 0 {
			t.Fatalf("job %s has nonpositive comm time", j.Name)
		}
		for _, n := range j.Nodes {
			if seen[n] {
				t.Fatalf("node %d shared between jobs", n)
			}
			seen[n] = true
		}
	}
}

// Three jobs filling the whole mini machine: allocations must partition the
// node set exactly — pairwise disjoint, jointly exhaustive — and every job
// still completes while overlapping in time with the others.
func TestRunMultiThreeJobsPartitionMachine(t *testing.T) {
	res, err := RunMulti(multiConfig(t, []JobSpec{
		{Name: "a", Trace: smallCR(t, 32, 16*trace.KB), Placement: placement.RandomNode},
		{Name: "b", Trace: smallCR(t, 16, 16*trace.KB), Placement: placement.RandomRouter},
		{Name: "c", Trace: smallCR(t, 16, 16*trace.KB), Placement: placement.Contiguous},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed() {
		t.Fatal("full-machine co-run did not complete")
	}
	topo := topology.MustNew(topology.Mini())
	owner := make(map[topology.NodeID]string, topo.NumNodes())
	for _, j := range res.Jobs {
		if len(j.Nodes) != len(j.CommTimes) {
			t.Fatalf("job %s: %d nodes for %d ranks", j.Name, len(j.Nodes), len(j.CommTimes))
		}
		for _, n := range j.Nodes {
			if prev, ok := owner[n]; ok {
				t.Fatalf("node %d owned by both %s and %s", n, prev, j.Name)
			}
			owner[n] = j.Name
		}
	}
	if len(owner) != topo.NumNodes() {
		t.Fatalf("jobs cover %d of %d nodes", len(owner), topo.NumNodes())
	}
	// Overlap in time, not serialization: the fabric ran all three jobs
	// concurrently, so the co-run is shorter than the jobs run back to back.
	var sum des.Time
	for _, j := range res.Jobs {
		sum += j.MaxCommTime()
	}
	if res.Duration >= sum {
		t.Fatalf("no temporal overlap: duration %v >= serialized %v", res.Duration, sum)
	}
}

func TestRunMultiInterferenceVsIsolation(t *testing.T) {
	// The bully effect: AMG co-running with a heavy CR is slower than AMG
	// alone under the same placement and routing.
	amg := smallAMG(t)
	alone, err := RunMulti(multiConfig(t, []JobSpec{
		{Name: "amg", Trace: amg, Placement: placement.RandomNode},
	}))
	if err != nil {
		t.Fatal(err)
	}
	co, err := RunMulti(multiConfig(t, []JobSpec{
		{Name: "amg", Trace: amg, Placement: placement.RandomNode},
		{Name: "cr", Trace: smallCR(t, 32, 256*trace.KB), Placement: placement.RandomNode},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !co.Completed() {
		t.Fatal("co-run did not complete")
	}
	if co.Jobs[0].MaxCommTime() <= alone.Jobs[0].MaxCommTime() {
		t.Fatalf("co-running did not slow AMG: alone %v, co %v",
			alone.Jobs[0].MaxCommTime(), co.Jobs[0].MaxCommTime())
	}
}

func TestRunMultiStaggeredStarts(t *testing.T) {
	late := 50 * des.Microsecond
	res, err := RunMulti(multiConfig(t, []JobSpec{
		{Name: "first", Trace: smallCR(t, 8, 16*trace.KB), Placement: placement.Contiguous},
		{Name: "second", Trace: smallCR(t, 8, 16*trace.KB), Placement: placement.Contiguous, Start: late},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed() {
		t.Fatal("staggered co-run did not complete")
	}
	if res.Duration < late {
		t.Fatalf("run ended at %v, before the second job's start %v", res.Duration, late)
	}
}

func TestRunMultiRejectsOverCommitment(t *testing.T) {
	if _, err := RunMulti(multiConfig(t, []JobSpec{
		{Name: "a", Trace: smallCR(t, 48, trace.KB), Placement: placement.Contiguous},
		{Name: "b", Trace: smallCR(t, 48, trace.KB), Placement: placement.Contiguous},
	})); err == nil {
		t.Fatal("accepted jobs exceeding the machine")
	}
	if _, err := RunMulti(multiConfig(t, nil)); err == nil {
		t.Fatal("accepted empty co-run")
	}
	if _, err := RunMulti(multiConfig(t, []JobSpec{{Name: "x"}})); err == nil {
		t.Fatal("accepted job without trace")
	}
}

func TestRunMultiMaxSimTime(t *testing.T) {
	cfg := multiConfig(t, []JobSpec{
		{Name: "cr", Trace: smallCR(t, 32, 512*trace.KB), Placement: placement.Contiguous},
	})
	cfg.MaxSimTime = 5 * des.Microsecond
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed() {
		t.Fatal("claimed completion despite tiny deadline")
	}

	// A deadline the co-run never reaches changes nothing a job measures:
	// the run stops at the last job's completion, as Run does.
	cfg.MaxSimTime = 0
	free, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxSimTime = 10 * free.Duration
	late, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !late.Completed() {
		t.Fatal("co-run with a deadline after completion did not complete")
	}
	if late.Duration > free.Duration {
		t.Fatalf("co-run ran past its last job: %v > %v", late.Duration, free.Duration)
	}
	for i := range free.Jobs {
		if fmt.Sprint(late.Jobs[i].CommTimes) != fmt.Sprint(free.Jobs[i].CommTimes) {
			t.Fatalf("job %s: comm times %v with a late deadline, %v without",
				free.Jobs[i].Name, late.Jobs[i].CommTimes, free.Jobs[i].CommTimes)
		}
	}
}

func TestRunMultiDeterministic(t *testing.T) {
	build := func() MultiConfig {
		return multiConfig(t, []JobSpec{
			{Name: "cr", Trace: smallCR(t, 16, 32*trace.KB), Placement: placement.RandomNode},
			{Name: "amg", Trace: smallAMG(t), Placement: placement.RandomCabinet},
		})
	}
	a, err := RunMulti(build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMulti(build())
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Events != b.Events {
		t.Fatalf("nondeterministic co-run: (%v,%d) vs (%v,%d)", a.Duration, a.Events, b.Duration, b.Events)
	}
}

// TestRunMultiDigestPinned pins one audited co-run to a literal: a shuffled
// victim, a router-packed bully that starts late, and a third job placed
// into what the first two leave. The digest covers each job's nodes,
// per-rank times and hops, every link's bytes and saturation, and the
// run's duration and event count, so a change to the co-run's stream draws,
// launch order or drain rule fails here even when reruns agree.
func TestRunMultiDigestPinned(t *testing.T) {
	cfg := multiConfig(t, []JobSpec{
		{Name: "amg", Trace: smallAMG(t), Placement: placement.RandomNode, Mapping: mapping.Shuffle},
		{Name: "cr", Trace: smallCR(t, 24, 64*trace.KB), Placement: placement.RandomRouter,
			Mapping: mapping.RouterPacked, Start: 7 * des.Microsecond},
		{Name: "probe", Trace: smallCR(t, 8, 16*trace.KB), Placement: placement.RandomCabinet,
			Mapping: mapping.Shuffle, Start: 2 * des.Microsecond},
	})
	cfg.Audit = true
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed() || res.Audit == nil {
		t.Fatalf("co-run completed=%v audit=%v", res.Completed(), res.Audit)
	}
	h := fnv.New64a()
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, j := range res.Jobs {
		for i := range j.Nodes {
			put(int64(j.Nodes[i]))
			put(int64(j.CommTimes[i]))
			put(int64(math.Float64bits(j.AvgHops[i])))
		}
	}
	for _, l := range res.Links {
		put(l.Bytes)
		put(int64(l.SatTime))
	}
	put(int64(res.Duration))
	put(int64(res.Events))
	const want = "062b16c1ebf85c98"
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("co-run digest %s, want %s (duration %v, %d events)", got, want, res.Duration, res.Events)
	}
}
