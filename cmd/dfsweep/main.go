// Command dfsweep regenerates the paper's evaluation artifacts — Tables I
// and II and Figures 2 through 10 — printing each as plain-text tables and
// optionally dumping CSVs.
//
// Examples:
//
//	dfsweep -exp all -scale quick
//	dfsweep -exp fig3,fig4 -scale paper -data out/
//	dfsweep -exp fig7 -seed 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dragonfly"
	"dragonfly/internal/cliutil"
	"dragonfly/internal/profiling"
)

func main() {
	var (
		exps = flag.String("exp", "all", "comma-separated experiment ids, or 'all' ("+
			strings.Join(dragonfly.ExperimentIDs(), ", ")+
			"; extensions: "+strings.Join(dragonfly.ExtensionExperimentIDs(), ", ")+")")
		scale    = flag.String("scale", "quick", "experiment scale: quick or paper")
		topoName = flag.String("topo", "", "machine preset override: theta, mini, dfplus, or dfplus-mini (default: the scale's XC40 machine; dfplus* runs are extensions beyond the paper)")
		seed     = flag.Int64("seed", 1, "random seed")
		dataDir  = flag.String("data", "", "directory for CSV output (omit to skip)")
		quiet    = flag.Bool("quiet", false, "suppress per-run progress lines")
		burst    = flag.Int("burst-divisor", 0, "bursty-background volume divisor (0 = scale default)")
		parallel = flag.Int("parallel", 0, "worker pool for independent simulations (1 = sequential, 0 = NumCPU); reports are byte-identical at every setting")
		auditOn  = flag.Bool("audit", false, "run every simulation under the invariant auditor (fails loudly on any flow-control, conservation, or routing violation)")
		faultStr = flag.String("faults", "", "degrade every simulation's fabric (extension beyond the paper): comma clauses global=FRAC, local=FRAC, routers=K, router=ID, link=A-B, group=G, bundle=G1-G2, flap=link:A-B@MTBF:MTTR or router:ID@MTBF:MTTR, until=DUR, fail|repair=TARGET@DUR, seed=N; figr/figq/figf drive their own fault specs and ignore this")
		faultSd  = flag.Int64("fault-seed", 0, "override the fault spec's seed= clause (0 keeps the spec's own seed)")
		farmDir  = flag.String("farm-cache", "", "content-addressed result farm directory (see dffarm): banked cells replay instead of re-simulating, fresh cells are banked; reports are byte-identical either way")
		retries  = flag.Int("retries", 0, "re-attempts per failing cell before its error stands (0 = fail fast)")
		jobTmo   = flag.Duration("job-timeout", 0, "wall-clock budget per cell, e.g. 5m (0 = unlimited)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatalf("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatalf("%v", err)
		}
	}()

	opts := dragonfly.ExperimentOptions{
		Seed:         *seed,
		DataDir:      *dataDir,
		BurstDivisor: *burst,
		Parallel:     *parallel,
		Audit:        *auditOn,
	}
	switch *scale {
	case "quick":
		opts.Scale = dragonfly.ScaleQuick
	case "paper":
		opts.Scale = dragonfly.ScalePaper
	default:
		cliutil.Usagef("dfsweep", "scale %q: want quick or paper", *scale)
	}
	if *topoName != "" {
		m, err := cliutil.Machine(*topoName, "")
		if err != nil {
			cliutil.Usagef("dfsweep", "%v", err)
		}
		opts.Machine = m
	}
	fspec, err := cliutil.FaultSpec(*faultStr, *faultSd)
	if err != nil {
		cliutil.Usagef("dfsweep", "%v", err)
	}
	opts.Faults = fspec
	if opts.Retries, err = cliutil.Retries(*retries); err != nil {
		cliutil.Usagef("dfsweep", "%v", err)
	}
	if opts.JobTimeout, err = cliutil.JobTimeout(*jobTmo); err != nil {
		cliutil.Usagef("dfsweep", "%v", err)
	}
	if *farmDir != "" {
		store, err := dragonfly.OpenFarm(*farmDir)
		if err != nil {
			fatalf("%v", err)
		}
		opts.Farm = store
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}

	known := map[string]bool{}
	for _, id := range append(dragonfly.ExperimentIDs(), dragonfly.ExtensionExperimentIDs()...) {
		known[id] = true
	}
	ids := dragonfly.ExperimentIDs()
	if *exps != "all" {
		ids = strings.Split(*exps, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
			if !known[ids[i]] {
				cliutil.Usagef("dfsweep", "experiment %q: want %s, or all",
					ids[i], strings.Join(append(dragonfly.ExperimentIDs(), dragonfly.ExtensionExperimentIDs()...), ", "))
			}
		}
	}

	runner := dragonfly.NewRunner(opts)
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		rep, err := runner.Run(id)
		if err != nil {
			fatalf("%s: %v", id, err)
		}
		if err := rep.WriteText(os.Stdout); err != nil {
			fatalf("write: %v", err)
		}
		fmt.Fprintf(os.Stderr, "dfsweep: %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *farmDir != "" {
		st := runner.FarmStats()
		fmt.Fprintf(os.Stderr, "dfsweep: farm %s: %d hits, %d simulated, %d corrupt re-run\n",
			*farmDir, st.Hits, st.Misses, st.Corrupt)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dfsweep: "+format+"\n", args...)
	os.Exit(1)
}
