package sched

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/mapping"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
)

func cfg(backfill bool) Config {
	return Config{
		Topology: topology.Mini(), // 64 nodes
		Params:   network.DefaultParams(),
		Routing:  routing.Adaptive,
		Seed:     1,
		Backfill: backfill,
	}
}

func job(t *testing.T, name string, ranks int, bytes int64, arrival des.Time) JobRequest {
	t.Helper()
	tr, err := trace.CR(trace.CRConfig{Ranks: ranks, MessageBytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	return JobRequest{
		Name: name, Trace: tr,
		Placement: placement.Contiguous,
		Arrival:   arrival,
	}
}

func TestSingleJobRunsImmediately(t *testing.T) {
	res, err := Run(cfg(false), []JobRequest{job(t, "a", 16, 32*trace.KB, 0)})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Wait() != 0 {
		t.Fatalf("idle machine queued the job for %v", j.Wait())
	}
	if j.Finish <= j.Start {
		t.Fatalf("finish %v not after start %v", j.Finish, j.Start)
	}
	if res.Makespan < j.Finish {
		t.Fatalf("makespan %v before job finish %v", res.Makespan, j.Finish)
	}
}

func TestFCFSQueuesWhenFull(t *testing.T) {
	// Two 40-rank jobs on a 64-node machine: the second must wait for the
	// first to release its nodes.
	res, err := Run(cfg(false), []JobRequest{
		job(t, "first", 40, 64*trace.KB, 0),
		job(t, "second", 40, 64*trace.KB, des.Microsecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	first, second := res.Jobs[0], res.Jobs[1]
	if second.Start < first.Finish {
		t.Fatalf("second started at %v before first finished at %v", second.Start, first.Finish)
	}
	if second.Wait() <= 0 {
		t.Fatal("second job recorded no queue wait")
	}
}

func TestFCFSHeadBlocksWithoutBackfill(t *testing.T) {
	// big(40) running; huge(50) queued and blocking; tiny(8) behind it.
	// Without backfill, tiny waits for huge even though it would fit.
	jobs := []JobRequest{
		job(t, "big", 40, 128*trace.KB, 0),
		job(t, "huge", 50, 16*trace.KB, des.Microsecond),
		job(t, "tiny", 8, 16*trace.KB, 2*des.Microsecond),
	}
	strict, err := Run(cfg(false), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Jobs[2].Start < strict.Jobs[1].Start {
		t.Fatal("strict FCFS let tiny overtake huge")
	}
	if strict.Jobs[2].Backfilled {
		t.Fatal("strict FCFS marked a job backfilled")
	}
}

func TestBackfillLetsSmallJobJump(t *testing.T) {
	jobs := []JobRequest{
		job(t, "big", 40, 128*trace.KB, 0),
		job(t, "huge", 50, 16*trace.KB, des.Microsecond),
		job(t, "tiny", 8, 16*trace.KB, 2*des.Microsecond),
	}
	bf, err := Run(cfg(true), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if bf.Jobs[2].Start >= bf.Jobs[1].Start {
		t.Fatal("backfill did not let tiny start before huge")
	}
	if !bf.Jobs[2].Backfilled {
		t.Fatal("backfilled job not marked")
	}
	// Backfill must not hurt overall makespan here.
	strict, err := Run(cfg(false), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if bf.Makespan > strict.Makespan {
		t.Fatalf("backfill makespan %v worse than strict %v", bf.Makespan, strict.Makespan)
	}
}

func TestNodesReleasedAndReused(t *testing.T) {
	// Four sequential full-machine jobs: each must reuse all 64 nodes.
	var jobs []JobRequest
	for i := 0; i < 4; i++ {
		jobs = append(jobs, job(t, "j", 64, 16*trace.KB, 0))
	}
	res, err := Run(cfg(false), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if res.Jobs[i].Start < res.Jobs[i-1].Finish {
			t.Fatalf("job %d started before job %d released the machine", i, i-1)
		}
	}
}

func TestConcurrentJobsInterfere(t *testing.T) {
	// Two 16-rank jobs with random placement sharing the machine finish
	// slower (per-job comm time) than one alone.
	mk := func(n int) []JobRequest {
		var jobs []JobRequest
		for i := 0; i < n; i++ {
			j := job(t, "j", 16, 128*trace.KB, 0)
			j.Placement = placement.RandomNode
			jobs = append(jobs, j)
		}
		return jobs
	}
	solo, err := Run(cfg(false), mk(1))
	if err != nil {
		t.Fatal(err)
	}
	duo, err := Run(cfg(false), mk(2))
	if err != nil {
		t.Fatal(err)
	}
	if duo.Jobs[0].MaxCommTime() <= solo.Jobs[0].MaxCommTime() {
		t.Fatalf("sharing did not slow the job: solo %v, shared %v",
			solo.Jobs[0].MaxCommTime(), duo.Jobs[0].MaxCommTime())
	}
}

func TestSchedulerRejectsBadInput(t *testing.T) {
	if _, err := Run(cfg(false), nil); err == nil {
		t.Error("empty submission accepted")
	}
	if _, err := Run(cfg(false), []JobRequest{{Name: "x"}}); err == nil {
		t.Error("job without trace accepted")
	}
	if _, err := Run(cfg(false), []JobRequest{job(t, "too-big", 100, 1024, 0)}); err == nil {
		t.Error("job larger than machine accepted")
	}
	bad := job(t, "neg", 8, 1024, 0)
	bad.Arrival = -5
	if _, err := Run(cfg(false), []JobRequest{bad}); err == nil {
		t.Error("negative arrival accepted")
	}
	// The rest fail only when the job starts, inside a DES callback: the
	// run must return an error naming the job, not panic, and stop
	// scheduling while the jobs already running drain.
	empty := job(t, "empty", 8, 1024, 0)
	empty.Trace = &trace.Trace{App: "CR"}
	badPlace := job(t, "bad-place", 8, 1024, 0)
	badPlace.Placement = placement.Policy(99)
	badMap := job(t, "bad-map", 8, 1024, 0)
	badMap.Mapping = mapping.Policy(99)
	for _, tc := range []struct {
		bad  JobRequest
		want string
	}{
		{empty, `sched: job 1 ("empty"): placement: job size 0 must be >= 1`},
		{badPlace, `sched: job 1 ("bad-place"): placement: unknown policy 99`},
		{badMap, `sched: job 1 ("bad-map"): mapping: unknown policy 99`},
	} {
		for _, backfill := range []bool{false, true} {
			jobs := []JobRequest{
				job(t, "ok", 16, 16*trace.KB, 0),
				tc.bad,
				job(t, "after", 8, 16*trace.KB, 2*des.Microsecond),
			}
			jobs[1].Arrival = des.Microsecond
			_, err := Run(cfg(backfill), jobs)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s (backfill=%v): err %v, want %q", tc.bad.Name, backfill, err, tc.want)
			}
		}
	}
}

func TestSchedulerDeterministic(t *testing.T) {
	jobs := func() []JobRequest {
		return []JobRequest{
			job(t, "a", 30, 64*trace.KB, 0),
			job(t, "b", 40, 32*trace.KB, 5*des.Microsecond),
			job(t, "c", 10, 16*trace.KB, 10*des.Microsecond),
		}
	}
	x, err := Run(cfg(true), jobs())
	if err != nil {
		t.Fatal(err)
	}
	y, err := Run(cfg(true), jobs())
	if err != nil {
		t.Fatal(err)
	}
	if x.Makespan != y.Makespan || x.Events != y.Events {
		t.Fatalf("nondeterministic schedule: (%v,%d) vs (%v,%d)", x.Makespan, x.Events, y.Makespan, y.Events)
	}
	if x.MeanWait() != y.MeanWait() {
		t.Fatal("mean wait differs across identical runs")
	}
}

// scheduleDigest hashes what a schedule decided and measured: each job's
// start, finish, nodes and per-rank communication times, then the makespan
// and the event count.
func scheduleDigest(res *Result) string {
	h := fnv.New64a()
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, j := range res.Jobs {
		put(int64(j.Start))
		put(int64(j.Finish))
		for _, n := range j.Nodes {
			put(int64(n))
		}
		for _, c := range j.CommTimes {
			put(int64(c))
		}
	}
	put(int64(res.Makespan))
	put(int64(res.Events))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestScheduleDigestPinned pins whole schedules to literals: a queue of
// randomly placed, shuffle-mapped jobs that overflows the machine, with and
// without backfill, on both mini machines. Reruns within one build cannot
// see a change to the scheduler's stream draws, launch order or drain rule;
// only a literal can.
func TestScheduleDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		machine  topology.Machine
		backfill bool
		want     string
	}{
		{topology.Mini(), false, "13de4b378b45bbc2"},
		{topology.Mini(), true, "09209aed609753cb"},
		{topology.PlusMini(), false, "70df759a75280cf4"},
		{topology.PlusMini(), true, "ce511e566f0f1d20"},
	} {
		c := cfg(tc.backfill)
		c.Topology = tc.machine
		ic, err := tc.machine.Build()
		if err != nil {
			t.Fatal(err)
		}
		nodes := ic.NumNodes()
		// Sizes in eighths of the machine: the third job cannot start
		// beside the first two, and the fourth fits the gap it leaves.
		var jobs []JobRequest
		for i, spec := range []struct {
			eighths int
			pol     placement.Policy
		}{
			{3, placement.RandomNode},
			{3, placement.RandomCabinet},
			{5, placement.RandomRouter},
			{1, placement.RandomNode},
			{2, placement.RandomChassis},
		} {
			j := job(t, fmt.Sprintf("j%d", i), spec.eighths*nodes/8, 32*trace.KB, des.Time(i)*3*des.Microsecond)
			j.Placement = spec.pol
			j.Mapping = mapping.Shuffle
			jobs = append(jobs, j)
		}
		res, err := Run(c, jobs)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/backfill=%v", tc.machine.Label(), tc.backfill)
		if res.Jobs[3].Backfilled != tc.backfill {
			t.Errorf("%s: fourth job backfilled = %v", name, res.Jobs[3].Backfilled)
		}
		if got := scheduleDigest(res); got != tc.want {
			t.Errorf("%s: schedule digest %s, want %s", name, got, tc.want)
		}
	}
}
