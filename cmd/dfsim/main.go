// Command dfsim runs a single dragonfly simulation cell: one application,
// one placement policy, one routing mechanism, optionally with background
// traffic, and prints the paper's metrics.
//
// Comma-separated placement/routing lists sweep the cross product of cells;
// -parallel fans the independent simulations across a worker pool while the
// results print in cell order, identical to a sequential sweep.
//
// Examples:
//
//	dfsim -describe
//	dfsim -app CR -placement rand -routing min
//	dfsim -app AMG -placement cont -routing adp -background uniform
//	dfsim -app FB -topo mini -scale 0.5 -seed 7
//	dfsim -app CR -placement cont,rand -routing min,adp -parallel 4
//	dfsim -app CR -routing adp -faults global=0.25,seed=3 -audit
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"dragonfly"
	"dragonfly/internal/ascii"
	"dragonfly/internal/cliutil"
	"dragonfly/internal/profiling"
)

func main() {
	var (
		topoName   = flag.String("topo", "", "machine preset: theta, mini, dfplus, or dfplus-mini (default theta; dfplus* are extensions beyond the paper)")
		app        = flag.String("app", "CR", "application: CR, FB, AMG (paper miniapps), or RING, TREE, MOE, HALO2D, HALO3D, CKPT (dependency-graph generators)")
		place      = flag.String("placement", "cont", "placement (comma-separated sweeps): cont, cab, chas, rotr, rand")
		route      = flag.String("routing", "min", "routing (comma-separated sweeps): min, adp, or qadaptive")
		parallel   = flag.Int("parallel", 0, "worker pool for swept cells (1 = sequential, 0 = NumCPU)")
		mapName    = flag.String("mapping", "identity", "task mapping: identity, shuffle, router-packed, group-packed")
		msgScale   = flag.Float64("scale", 1, "message-size scale factor (sensitivity study)")
		seed       = flag.Int64("seed", 1, "random seed")
		background = flag.String("background", "none", "background traffic: none, uniform, bursty")
		bgBytes    = flag.Int64("bg-bytes", 16*1024, "background message size in bytes")
		bgInterval = flag.Duration("bg-interval", 0, "background interval (default 50us uniform, 500us bursty)")
		bgFanOut   = flag.Int("bg-fanout", 64, "bursty background fan-out per node (0 = all peers)")
		faultSpec  = flag.String("faults", "", "degrade the fabric (extension beyond the paper): comma clauses global=FRAC, local=FRAC, routers=K, router=ID, link=A-B, fail|repair=link:A-B@DUR or router:ID@DUR, seed=N")
		faultSeed  = flag.Int64("fault-seed", 0, "override the fault spec's seed= clause (0 keeps the spec's own seed)")
		wdEvents   = flag.Uint64("watchdog-events", 10_000_000_000, "DES stall watchdog: fail with a queue diagnostic past this many events (0 disables)")
		describe   = flag.Bool("describe", false, "print the machine inventory (Figure 1) and exit")
		plot       = flag.Bool("plot", false, "render ASCII comm-time box plot and channel-traffic CDFs")
		auditOn    = flag.Bool("audit", false, "run under the invariant auditor (fails loudly on any flow-control, conservation, or routing violation)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file at exit")
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

	m, err := cliutil.Machine(*topoName, "theta")
	if err != nil {
		cliutil.Usagef("dfsim", "%v", err)
	}
	ic, err := m.Build()
	if err != nil {
		fatalf("%v", err)
	}

	if *describe {
		fmt.Print(ic.Describe())
		return
	}

	// Small machines get proportionally shrunk application workloads.
	appName, err := cliutil.App(*app)
	if err != nil {
		cliutil.Usagef("dfsim", "%v", err)
	}
	tr, gr, err := appWorkload(appName, ic.NumNodes() <= 256)
	if err != nil {
		cliutil.Usagef("dfsim", "%v", err)
	}
	pols, err := cliutil.Placements(*place)
	if err != nil {
		cliutil.Usagef("dfsim", "%v", err)
	}
	mechs, err := cliutil.Routings(*route)
	if err != nil {
		cliutil.Usagef("dfsim", "%v", err)
	}
	mapPol, err := cliutil.Mapping(*mapName)
	if err != nil {
		cliutil.Usagef("dfsim", "%v", err)
	}
	fspec, err := cliutil.FaultSpec(*faultSpec, *faultSeed)
	if err != nil {
		cliutil.Usagef("dfsim", "%v", err)
	}
	bgKind, bgOn, err := cliutil.Background(*background)
	if err != nil {
		cliutil.Usagef("dfsim", "%v", err)
	}

	var cfgs []dragonfly.Config
	for _, mech := range mechs {
		for _, pol := range pols {
			cfg := dragonfly.Config{
				Topology:       m,
				Params:         dragonfly.DefaultParams(),
				Placement:      pol,
				Routing:        mech,
				Mapping:        mapPol,
				Trace:          tr,
				Graph:          gr,
				MsgScale:       *msgScale,
				Seed:           *seed,
				Audit:          *auditOn,
				Faults:         fspec,
				WatchdogEvents: *wdEvents,
			}
			if bgOn {
				interval := 50 * dragonfly.Microsecond
				fan := 0
				if bgKind == dragonfly.Bursty {
					interval = 500 * dragonfly.Microsecond
					fan = *bgFanOut
				}
				if *bgInterval > 0 {
					interval = dragonfly.Time(bgInterval.Nanoseconds())
				}
				cfg.Background = &dragonfly.BackgroundConfig{
					Kind: bgKind, MsgBytes: *bgBytes, Interval: interval, FanOut: fan,
				}
				cfg.MaxSimTime = dragonfly.Second
			}
			cfgs = append(cfgs, cfg)
		}
	}

	results, err := dragonfly.RunBatch(cfgs, *parallel)
	if err != nil {
		fatalf("%v", err)
	}
	for i, res := range results {
		if i > 0 {
			fmt.Println()
		}
		printResult(res, appName)
		if *plot {
			printPlots(res)
		}
	}
}

func printPlots(res *dragonfly.Result) {
	fmt.Printf("\ncommunication time per rank (ms):\n%s",
		ascii.BoxPlot([]ascii.NamedValues{{Name: res.Config.Name(), Values: res.CommTimesMs()}}, 60))
	fmt.Printf("\nchannel traffic CDF (MiB per channel):\n%s",
		ascii.CDFPlot(map[string][]float64{
			"local":  res.LocalTraffic(false),
			"global": res.GlobalTraffic(false),
		}, 60, 12))
}

// appWorkload builds the named application at full or mini size: flat
// miniapps return a trace, graph generators return a dependency graph;
// exactly one of the two is non-nil.
func appWorkload(name string, mini bool) (*dragonfly.Trace, *dragonfly.Graph, error) {
	if dragonfly.IsGraphApp(name) {
		g, err := appGraph(name, mini)
		return nil, g, err
	}
	tr, err := appTrace(name, mini)
	return tr, nil, err
}

func appTrace(name string, mini bool) (*dragonfly.Trace, error) {
	switch name {
	case "CR":
		cfg := dragonfly.DefaultCR()
		if mini {
			cfg = dragonfly.CRConfig{Ranks: 32, MessageBytes: 16 * 1024}
		}
		return dragonfly.CRTrace(cfg)
	case "FB":
		cfg := dragonfly.DefaultFB()
		if mini {
			cfg = dragonfly.FBConfig{X: 3, Y: 3, Z: 3, Iterations: 2,
				MinBytes: 4 * 1024, MaxBytes: 64 * 1024, FarPartners: 1, FarFraction: 0.1, Seed: 1}
		}
		return dragonfly.FBTrace(cfg)
	case "AMG":
		cfg := dragonfly.DefaultAMG()
		if mini {
			cfg = dragonfly.AMGConfig{X: 3, Y: 3, Z: 3, Cycles: 3, Levels: 3, PeakBytes: 16 * 1024}
		}
		return dragonfly.AMGTrace(cfg)
	}
	return nil, fmt.Errorf("unknown application %q (want CR, FB, or AMG)", name)
}

func appGraph(name string, mini bool) (*dragonfly.Graph, error) {
	if !mini {
		return dragonfly.DefaultGraphApp(name)
	}
	const kb = 1024
	switch name {
	case "RING":
		return dragonfly.RingAllReduceGraph(dragonfly.RingAllReduceConfig{Ranks: 16, Bytes: 64 * kb, Rounds: 1})
	case "TREE":
		return dragonfly.TreeAllReduceGraph(dragonfly.TreeAllReduceConfig{Ranks: 16, Bytes: 32 * kb, Rounds: 2})
	case "MOE":
		return dragonfly.MoEAllToAllGraph(dragonfly.MoEAllToAllConfig{Ranks: 16, Bytes: 16 * kb, Rounds: 1, Window: 4})
	case "HALO2D":
		return dragonfly.HaloGraph(dragonfly.HaloConfig{X: 4, Y: 4, Bytes: 16 * kb, Rounds: 2})
	case "HALO3D":
		return dragonfly.HaloGraph(dragonfly.HaloConfig{X: 3, Y: 3, Z: 3, Bytes: 8 * kb, Rounds: 2})
	case "CKPT":
		return dragonfly.CheckpointGraph(dragonfly.CheckpointConfig{
			Clients: 12, Servers: 4, Bytes: 256 * kb, Rounds: 1, Delay: 20 * dragonfly.Microsecond,
		})
	}
	return nil, fmt.Errorf("unknown graph application %q", name)
}

func printResult(res *dragonfly.Result, app string) {
	fmt.Printf("%s under %s (seed %d)\n", app, res.Config.Name(), res.Config.Seed)
	fmt.Printf("  completed:     %v\n", res.Completed)
	fmt.Printf("  simulated:     %v over %d events\n", res.Duration, res.Events)

	times := res.CommTimesMs()
	sort.Float64s(times)
	q := func(f float64) float64 { return times[int(f*float64(len(times)-1))] }
	fmt.Printf("  comm time ms:  min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g\n",
		times[0], q(0.25), q(0.5), q(0.75), times[len(times)-1])

	var hops float64
	for _, h := range res.AvgHops {
		hops += h
	}
	fmt.Printf("  avg hops:      %.3f (mean over %d ranks)\n", hops/float64(len(res.AvgHops)), len(res.AvgHops))

	sumMax := func(vals []float64) (sum, max float64) {
		for _, v := range vals {
			sum += v
			if v > max {
				max = v
			}
		}
		return
	}
	lt, ltMax := sumMax(res.LocalTraffic(false))
	gt, gtMax := sumMax(res.GlobalTraffic(false))
	ls, lsMax := sumMax(res.LocalSaturation(false))
	gs, gsMax := sumMax(res.GlobalSaturation(false))
	fmt.Printf("  local chans:   %.1f MiB total, %.2f MiB max; saturation %.4g ms total, %.4g ms max\n", lt, ltMax, ls, lsMax)
	fmt.Printf("  global chans:  %.1f MiB total, %.2f MiB max; saturation %.4g ms total, %.4g ms max\n", gt, gtMax, gs, gsMax)
	if res.BackgroundPeakLoad > 0 {
		fmt.Printf("  bg peak load:  %.2f MiB per interval\n", float64(res.BackgroundPeakLoad)/(1024*1024))
	}
	if res.DroppedPackets > 0 || res.RouteErr != nil {
		fmt.Printf("  dropped:       %d packets, %d bytes (degraded fabric)\n",
			res.DroppedPackets, res.DroppedBytes)
	}
	if res.RouteErr != nil {
		fmt.Printf("  unreachable:   %v\n", res.RouteErr)
	}
	if res.Audit != nil {
		s := res.Audit.Stats
		fmt.Printf("  audit:         clean (%d events, %d credit ops, %d routes, %d messages checked)\n",
			s.Events, s.Reserves+s.Releases, s.Routes, s.Messages)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dfsim: "+format+"\n", args...)
	os.Exit(1)
}
