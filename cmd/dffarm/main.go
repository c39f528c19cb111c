// Command dffarm executes sweep jobs against a content-addressed result
// farm: the cross product of the flag lists below defines the job's cells,
// each cell's full run configuration is hashed into a content address, and
// the farm store under -cache banks every simulated result. Re-running a
// job (or any overlapping job) replays banked cells byte-identically
// instead of re-simulating, a corrupt or truncated entry silently degrades
// to a re-run, and -shard I/N splits one job across N cooperating
// processes sharing the store. -corpus flattens the completed sweep into
// one CSV of (configuration features, measured targets) per cell — the
// training corpus for a future surrogate model.
//
// The flag vocabulary is dfsweep's, and cells are built by the experiments
// runner itself, so a store populated by dffarm also serves farm-backed
// experiment reruns (dfsweep over the same scale/seed) and vice versa.
//
// Examples:
//
//	dffarm -cache farm/ -apps CR -placements cont,rand -routings min,adp
//	dffarm -cache farm/ -apps CR,FB,AMG -seeds 1,2,3 -corpus corpus.csv
//	dffarm -cache farm/ -apps CR -faults "none;global=0.1;global=0.25" -shard 0/4
//	dffarm -cache farm/ -apps CR -resume -quiet -corpus corpus.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dragonfly"
	"dragonfly/internal/cliutil"
)

func main() {
	var (
		cacheDir = flag.String("cache", "", "farm store directory (required; created if absent)")
		scale    = flag.String("scale", "quick", "experiment scale: quick or paper")
		topoName = flag.String("topo", "", "machine preset override: theta, mini, dfplus, or dfplus-mini (default: the scale's XC40 machine)")
		apps     = flag.String("apps", "CR", "comma-separated applications: CR, FB, AMG (flat miniapps), RING, TREE, MOE, HALO2D, HALO3D, CKPT (graph generators)")
		placeStr = flag.String("placements", "cont,rand", "comma-separated placement policies: cont, cab, chas, rotr, rand")
		routeStr = flag.String("routings", "min,adp", "comma-separated routing policies: min, adp, qadaptive")
		mapStr   = flag.String("mappings", "identity", "comma-separated task mappings: identity, shuffle, router-packed, group-packed")
		scaleStr = flag.String("msg-scales", "1", "comma-separated message-size multipliers")
		seedStr  = flag.String("seeds", "1", "comma-separated simulation seeds")
		bgStr    = flag.String("backgrounds", "none", "comma-separated interference kinds: none, uniform, bursty (scale-default volumes)")
		faultStr = flag.String("faults", "", "semicolon-separated fault-spec sweep; each element uses the dfsweep -faults grammar, 'none' or empty = healthy fabric")
		faultSd  = flag.Int64("fault-seed", 0, "override every fault spec's seed= clause (0 keeps each spec's own seed)")
		burst    = flag.Int("burst-divisor", 0, "bursty-background volume divisor (0 = scale default)")
		auditOn  = flag.Bool("audit", false, "run every cell under the invariant auditor")
		parallel = flag.Int("parallel", 0, "worker pool (1 = sequential, 0 = NumCPU)")
		shardStr = flag.String("shard", "", "execute shard I/N of the job (e.g. 0/4); cells are split round-robin and other processes run the rest against the same -cache")
		resume   = flag.Bool("resume", false, "report how much of the job the store already banks before running (completion is address-driven, so resuming is always safe)")
		corpus   = flag.String("corpus", "", "write the sweep's training-corpus CSV to this file (other shards' cells are skipped)")
		quiet    = flag.Bool("quiet", false, "suppress per-cell progress lines")
		scrub    = flag.Bool("scrub", false, "verify every store object's integrity, quarantine corrupt entries (the next sweep re-runs them), print the report, and exit")
		retries  = flag.Int("retries", 0, "re-attempts per failing cell before its error stands (0 = fail on first error)")
		jobTmo   = flag.Duration("job-timeout", 0, "wall-clock budget per cell, e.g. 5m (0 = unlimited)")
		quarLim  = flag.Int("quarantine-limit", 0, "poisoned cells tolerated per sweep: a cell failing every attempt is quarantined with diagnostics and the sweep continues, up to this many (0 = first exhausted cell is fatal)")
		chaosStr = flag.String("chaos", "", "inject seeded deterministic faults for resilience testing: comma clauses SITE=PROB (sites store.read, store.write, worker.panic, worker.kill, sim.stall), max=K, seed=N")
		jobEvs   = flag.Uint64("job-events", 0, "override every cell's DES stall-watchdog event budget (0 = the experiment default; part of the cell's content address)")
	)
	flag.Parse()
	if *cacheDir == "" {
		cliutil.Usagef("dffarm", "-cache is required (the farm store directory)")
	}
	shard, numShards, err := cliutil.Shard(*shardStr)
	if err != nil {
		cliutil.Usagef("dffarm", "%v", err)
	}
	if *scrub {
		store, err := dragonfly.OpenFarm(*cacheDir)
		if err != nil {
			fatalf("%v", err)
		}
		rep, err := store.Scrub()
		if err != nil {
			fatalf("scrub: %v", err)
		}
		fmt.Fprintf(os.Stderr, "dffarm: scrub %s: %s\n", *cacheDir, rep)
		return
	}

	// Resolve every sweep axis up front so flag mistakes exit before any
	// simulation starts.
	opts := dragonfly.ExperimentOptions{
		BurstDivisor: *burst,
		Audit:        *auditOn,
	}
	switch *scale {
	case "quick":
		opts.Scale = dragonfly.ScaleQuick
	case "paper":
		opts.Scale = dragonfly.ScalePaper
	default:
		cliutil.Usagef("dffarm", "scale %q: want quick or paper", *scale)
	}
	if *topoName != "" {
		m, err := cliutil.Machine(*topoName, "")
		if err != nil {
			cliutil.Usagef("dffarm", "%v", err)
		}
		opts.Machine = m
	}
	placements, err := cliutil.Placements(*placeStr)
	if err != nil {
		cliutil.Usagef("dffarm", "%v", err)
	}
	routings, err := cliutil.Routings(*routeStr)
	if err != nil {
		cliutil.Usagef("dffarm", "%v", err)
	}
	mappings, err := cliutil.Mappings(*mapStr)
	if err != nil {
		cliutil.Usagef("dffarm", "%v", err)
	}
	msgScales, err := cliutil.FloatList("msg-scales", *scaleStr)
	if err != nil {
		cliutil.Usagef("dffarm", "%v", err)
	}
	seeds, err := cliutil.Int64List("seeds", *seedStr)
	if err != nil {
		cliutil.Usagef("dffarm", "%v", err)
	}
	faultSpecs, err := cliutil.FaultSpecs(*faultStr, *faultSd)
	if err != nil {
		cliutil.Usagef("dffarm", "%v", err)
	}
	var bgKinds []string
	for _, s := range strings.Split(*bgStr, ",") {
		if _, _, err := cliutil.Background(s); err != nil {
			cliutil.Usagef("dffarm", "%v", err)
		}
		bgKinds = append(bgKinds, strings.TrimSpace(s))
	}
	appNames, err := cliutil.Apps(*apps)
	if err != nil {
		cliutil.Usagef("dffarm", "%v", err)
	}
	if *retries, err = cliutil.Retries(*retries); err != nil {
		cliutil.Usagef("dffarm", "%v", err)
	}
	if *jobTmo, err = cliutil.JobTimeout(*jobTmo); err != nil {
		cliutil.Usagef("dffarm", "%v", err)
	}
	if *quarLim, err = cliutil.QuarantineLimit(*quarLim); err != nil {
		cliutil.Usagef("dffarm", "%v", err)
	}
	chaosSpec, err := cliutil.ChaosSpec(*chaosStr)
	if err != nil {
		cliutil.Usagef("dffarm", "%v", err)
	}

	// The runner builds each cell's configuration exactly as the experiment
	// harness would (same machine, params, watchdog, interference volumes),
	// so dffarm cells and experiment cells share content addresses. Axes the
	// runner options don't span — per-cell seeds, fault specs, mappings —
	// are overridden on the built config, which is equivalent to a runner
	// constructed with those options.
	runner := dragonfly.NewRunner(opts)
	var cfgs []dragonfly.Config
	for _, app := range appNames {
		for _, bgName := range bgKinds {
			kind, on, _ := cliutil.Background(bgName)
			var bg *dragonfly.BackgroundConfig
			if on {
				b, err := runner.Background(kind, app)
				if err != nil {
					fatalf("%v", err)
				}
				bg = b
			}
			for _, pl := range placements {
				for _, rt := range routings {
					for _, mp := range mappings {
						for _, ms := range msgScales {
							for _, seed := range seeds {
								for _, fs := range faultSpecs {
									cfg, err := runner.CellConfig(app, dragonfly.Cell{Placement: pl, Routing: rt}, ms, bg)
									if err != nil {
										fatalf("%v", err)
									}
									cfg.Mapping = mp
									cfg.Seed = seed
									cfg.Faults = fs
									if *jobEvs > 0 {
										cfg.WatchdogEvents = *jobEvs
									}
									cfgs = append(cfgs, cfg)
								}
							}
						}
					}
				}
			}
		}
	}
	if len(cfgs) == 0 {
		cliutil.Usagef("dffarm", "the sweep grammar produced no cells")
	}

	store, err := dragonfly.OpenFarm(*cacheDir)
	if err != nil {
		fatalf("%v", err)
	}
	addrs := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		if addrs[i], err = dragonfly.ConfigAddress(cfg); err != nil {
			fatalf("cell %d: %v", i, err)
		}
	}
	job := dragonfly.FarmJobID(addrs)
	spec := fmt.Sprintf("apps=%s scale=%s topo=%s placements=%s routings=%s mappings=%s msg-scales=%s seeds=%s backgrounds=%s faults=%q",
		*apps, *scale, *topoName, *placeStr, *routeStr, *mapStr, *scaleStr, *seedStr, *bgStr, *faultStr)
	banked := store.CountCached(addrs)
	if *resume {
		if m, err := store.LoadManifest(job); err == nil {
			fmt.Fprintf(os.Stderr, "dffarm: resuming job %s (%s): previously %d/%d done\n", job, m.Spec, m.Done, m.Cells)
		}
	}
	fmt.Fprintf(os.Stderr, "dffarm: job %s: %d cells (%d banked), shard %d/%d, cache %s\n",
		job, len(cfgs), banked, shard, numShards, *cacheDir)

	start := time.Now()
	fopts := dragonfly.FarmOptions{
		Parallel:        *parallel,
		Shard:           shard,
		NumShards:       numShards,
		Retries:         *retries,
		JobTimeout:      *jobTmo,
		QuarantineLimit: *quarLim,
		Chaos:           dragonfly.NewChaosInjector(chaosSpec),
	}
	if !*quiet {
		fopts.Progress = func(ev dragonfly.FarmProgress) {
			kind := "miss"
			switch {
			case ev.Err != nil:
				kind = "FAIL"
			case ev.Hit:
				kind = "hit "
			}
			elapsed := time.Since(start)
			eta := time.Duration(float64(elapsed) / float64(ev.Done) * float64(ev.Total-ev.Done)).Round(time.Second)
			fmt.Fprintf(os.Stderr, "dffarm: [%d/%d] %s %.12s cell=%v elapsed=%v eta=%v\n",
				ev.Done, ev.Total, kind, ev.Addr, ev.Elapsed.Round(time.Millisecond),
				elapsed.Round(time.Second), eta)
		}
	}
	results, stats, runErr := dragonfly.NewFarm(store, fopts).Run(cfgs)

	manifest := &dragonfly.FarmManifest{Job: job, Spec: spec, Cells: len(cfgs), Done: store.CountCached(addrs)}
	if err := store.SaveManifest(manifest); err != nil {
		fmt.Fprintf(os.Stderr, "dffarm: manifest not saved: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "dffarm: %d/%d cells done (this shard: %d hits, %d simulated, %d corrupt re-run, %d retried, %d quarantined, %d uncacheable, %d errors) in %v\n",
		manifest.Done, manifest.Cells, stats.Hits, stats.Misses, stats.Corrupt, stats.Retried, stats.Quarantined, stats.Uncacheable, stats.Errors,
		time.Since(start).Round(time.Millisecond))
	if inj := fopts.Chaos.Injected(); inj > 0 {
		fmt.Fprintf(os.Stderr, "dffarm: chaos: %d faults injected (%s)\n", inj, chaosSpec)
	}
	// Quarantined cells are a flagged partial result, never a silent
	// truncation: name each poisoned cell and where its diagnostics live.
	if stats.Quarantined > 0 {
		fmt.Fprintf(os.Stderr, "dffarm: WARNING: %d cells quarantined after exhausting %d attempts each; the sweep's outputs omit them\n",
			stats.Quarantined, 1+*retries)
		if recs, err := store.QuarantinedJobs(); err == nil {
			for _, rec := range recs {
				last := ""
				if n := len(rec.Errors); n > 0 {
					last = rec.Errors[n-1]
				}
				fmt.Fprintf(os.Stderr, "dffarm:   quarantined %s (%d attempts): %s\n", rec.Name, rec.Attempts, last)
			}
		}
		fmt.Fprintf(os.Stderr, "dffarm: diagnostics under %s/quarantine/jobs; fix the cause and re-run (addresses re-run automatically)\n", *cacheDir)
	}
	if runErr != nil {
		fatalf("%v", runErr)
	}

	if *corpus != "" {
		f, err := os.Create(*corpus)
		if err != nil {
			fatalf("%v", err)
		}
		rows, skipped, err := dragonfly.WriteFarmCorpus(f, cfgs, results)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatalf("corpus: %v", err)
		}
		fmt.Fprintf(os.Stderr, "dffarm: wrote %d corpus rows to %s (%d cells on other shards)\n", rows, *corpus, skipped)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dffarm: "+format+"\n", args...)
	os.Exit(1)
}
