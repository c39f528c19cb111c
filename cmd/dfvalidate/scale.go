package main

// The -scale-smoke mode: a big-machine shakeout at a size the unit suites
// never reach (their largest machines have ~5k routers). For each requested
// shape it builds the machine, routes a sample of validated pairs, then
// drives an audited traffic burst under the DES stall watchdog — and
// finally checks the process's OS-visible memory against an explicit
// budget, so a reintroduced O(routers^2) table fails CI with a number
// attached rather than an OOM kill.

import (
	"fmt"
	"runtime"
	"time"

	"dragonfly/internal/audit"
	"dragonfly/internal/des"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// scaleSmokeMessages is the audited traffic burst size. It is deliberately
// modest: the burst exists to exercise injection, credit flow, and delivery
// over the fabric's link tables at scale, not to measure throughput.
const scaleSmokeMessages = 2000

// runScaleSmoke shakes out every shape and returns the first failure.
func runScaleSmoke(machines []topology.Machine, pairs int, budgetMB int64) error {
	for _, m := range machines {
		if err := smokeOne(m, pairs); err != nil {
			return err
		}
	}
	// One budget check for the whole run: Sys is monotone (the Go runtime
	// does not return address space), so after the largest shape it reflects
	// the peak footprint of everything built above.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sysMB := int64(ms.Sys) >> 20
	fmt.Printf("peak memory: %d MB from OS (budget %d MB)\n", sysMB, budgetMB)
	if sysMB > budgetMB {
		return fmt.Errorf("peak memory %d MB exceeds the %d MB budget (-mem-budget-mb)", sysMB, budgetMB)
	}
	return nil
}

func smokeOne(m topology.Machine, pairs int) error {
	start := time.Now()
	ic, err := m.Build()
	if err != nil {
		return fmt.Errorf("scale-smoke %s: %v", m.Label(), err)
	}
	fmt.Printf("scale-smoke: %s (%d routers, %d groups) wired in %v\n",
		ic.Name(), ic.NumRouters(), ic.NumGroups(), time.Since(start).Round(time.Millisecond))

	// Phase 1: sampled-pair routing, every path validated. This walks the
	// next-hop rows and lazy gateway shards exactly as a real run would.
	rng := des.NewRNG(1, "scale-smoke")
	ch := routing.NewChooserOpts(ic, routing.Adaptive, rng.Stream("route"), nil, routing.Options{})
	routeStart := time.Now()
	for i := 0; i < pairs; i++ {
		src := topology.NodeID(rng.Intn(ic.NumNodes()))
		dst := topology.NodeID(rng.Intn(ic.NumNodes()))
		p, err := ch.TryRoute(src, dst)
		if err != nil {
			return fmt.Errorf("scale-smoke %s: route %d->%d: %v", ic.Name(), src, dst, err)
		}
		if err := routing.Validate(ic, ic.RouterOfNode(src), ic.RouterOfNode(dst), p); err != nil {
			return fmt.Errorf("scale-smoke %s: invalid route %d->%d: %v", ic.Name(), src, dst, err)
		}
		ch.Release(p)
	}
	fmt.Printf("  routed %d sampled pairs, all valid, in %v\n",
		pairs, time.Since(routeStart).Round(time.Millisecond))

	// Phase 2: audited traffic burst under the stall watchdog. The auditor
	// shadows every credit movement and byte, so flow control over the
	// link tables is checked end to end; the watchdog turns any
	// livelock into a diagnosed failure instead of a hung CI job.
	eng := des.New()
	fab, err := network.New(eng, ic, network.DefaultParams(), routing.Adaptive, des.NewRNG(2, "scale-smoke-fab"))
	if err != nil {
		return fmt.Errorf("scale-smoke %s: %v", ic.Name(), err)
	}
	eng.SetWatchdog(500_000_000, 0, fab.WatchdogDiagnostic)
	aud := audit.New(ic)
	fab.SetObserver(aud)
	eng.SetObserver(aud.EventExecuted)
	for i := 0; i < scaleSmokeMessages; i++ {
		src := topology.NodeID(rng.Intn(ic.NumNodes()))
		dst := topology.NodeID(rng.Intn(ic.NumNodes()))
		fab.Send(src, dst, int64(rng.IntnRange(1, 64<<10)), nil, nil)
	}
	simStart := time.Now()
	eng.Run()
	if err := eng.Tripped(); err != nil {
		return fmt.Errorf("scale-smoke %s: %v", ic.Name(), err)
	}
	fab.FinishStats()
	aud.Finish(eng.Pending() == 0)
	if err := aud.Err(); err != nil {
		return fmt.Errorf("scale-smoke %s: %v", ic.Name(), err)
	}
	s := aud.Summary()
	fmt.Printf("  audited burst: %d messages, %d events, %d credit ops, clean, in %v\n",
		scaleSmokeMessages, s.Stats.Events, s.Stats.Reserves+s.Stats.Releases,
		time.Since(simStart).Round(time.Millisecond))
	return nil
}
