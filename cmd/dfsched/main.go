// Command dfsched simulates a batch queue on the dragonfly machine: a
// randomized stream of CR/FB/AMG-like jobs arrives over time, is scheduled
// FCFS (optionally with backfill), and runs on the shared fabric, printing
// per-job waits, communication times, and interference.
//
// Examples:
//
//	dfsched -jobs 12
//	dfsched -jobs 20 -backfill=false -topo theta
//	dfsched -jobs 8 -placement rand -seed 7
package main

import (
	"flag"
	"fmt"
	"os"

	"dragonfly"
	"dragonfly/internal/cliutil"
	"dragonfly/internal/des"
	"dragonfly/internal/network"
	"dragonfly/internal/sched"
	"dragonfly/internal/trace"
)

func main() {
	var (
		topoName = flag.String("topo", "", "machine preset: theta, mini, dfplus, or dfplus-mini (default mini)")
		jobs     = flag.Int("jobs", 10, "number of jobs to submit")
		backfill = flag.Bool("backfill", true, "enable aggressive backfill")
		place    = flag.String("placement", "cont", "placement for every job: cont, cab, chas, rotr, rand")
		route    = flag.String("routing", "adp", "routing: min, adp, or qadaptive")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	if *jobs <= 0 {
		cliutil.Usagef("dfsched", "jobs=%d: want a positive job count", *jobs)
	}
	m, err := cliutil.Machine(*topoName, "mini")
	if err != nil {
		cliutil.Usagef("dfsched", "%v", err)
	}
	pol, err := cliutil.Placement(*place)
	if err != nil {
		cliutil.Usagef("dfsched", "%v", err)
	}
	mech, err := cliutil.Routing(*route)
	if err != nil {
		cliutil.Usagef("dfsched", "%v", err)
	}

	ic, err := m.Build()
	if err != nil {
		fatalf("%v", err)
	}
	reqs, err := syntheticStream(*jobs, ic.NumNodes(), pol, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	res, err := sched.Run(sched.Config{
		Topology: m,
		Params:   network.DefaultParams(),
		Routing:  mech,
		Seed:     *seed,
		Backfill: *backfill,
	}, reqs)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("%-8s %-6s %-12s %-12s %-12s %-12s %s\n",
		"job", "ranks", "arrival", "wait", "comm(max)", "response", "note")
	for _, j := range res.Jobs {
		note := ""
		if j.Backfilled {
			note = "backfilled"
		}
		fmt.Printf("%-8s %-6d %-12v %-12v %-12v %-12v %s\n",
			j.Name, j.Ranks, j.Arrival, j.Wait(), j.MaxCommTime(), j.Response(), note)
	}
	fmt.Printf("\nmakespan %v, mean wait %v, %d DES events\n", res.Makespan, res.MeanWait(), res.Events)
}

// syntheticStream builds a randomized job mix: small probes, midsize
// neighbor-exchange solvers, and large many-to-many jobs.
func syntheticStream(n, machineNodes int, pol dragonfly.PlacementPolicy, seed int64) ([]sched.JobRequest, error) {
	rng := des.NewRNG(seed, "dfsched/stream")
	var reqs []sched.JobRequest
	arrival := des.Time(0)
	for i := 0; i < n; i++ {
		var tr *dragonfly.Trace
		var err error
		switch rng.Intn(3) {
		case 0: // probe
			tr, err = trace.CR(trace.CRConfig{
				Ranks: rng.IntnRange(4, machineNodes/8), MessageBytes: 16 * trace.KB})
		case 1: // solver
			d := rng.IntnRange(2, 3)
			tr, err = trace.AMG(trace.AMGConfig{
				X: d, Y: d, Z: d + 1, Cycles: 2, Levels: 3, PeakBytes: 12 * trace.KB})
		default: // many-to-many
			tr, err = trace.CR(trace.CRConfig{
				Ranks: rng.IntnRange(machineNodes/4, machineNodes/2), MessageBytes: 64 * trace.KB})
		}
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, sched.JobRequest{
			Name:      fmt.Sprintf("job%02d", i),
			Trace:     tr,
			Placement: pol,
			Arrival:   arrival,
		})
		arrival += des.Time(rng.IntnRange(1, 40)) * des.Microsecond
	}
	return reqs, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dfsched: "+format+"\n", args...)
	os.Exit(1)
}
