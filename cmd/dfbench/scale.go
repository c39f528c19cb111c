package main

// The -scale suite: big-machine construction and memory measurements that
// ordinary go-test benchmarks cannot express (they need post-GC live-byte
// deltas around a whole build, not per-iteration allocation counts). Each
// shape contributes one synthetic Benchmark entry to the snapshot:
//
//	ns/op           wall time to wire the machine and build chooser + fabric
//	                (advisory in -diff, like every timing)
//	live_bytes/op   post-GC HeapAlloc growth attributable to the built
//	                structures — the quantity the linear-size tables bound
//	bytes_per_router  live_bytes/op / routers, the scale-linearity figure
//	route_ns/op     mean TryRoute+Release over the sampled pairs
//	routers, groups shape records, so a diff shows what was measured
//
// live_bytes/op and bytes_per_router gate hard in -diff next to allocs/op
// and B/op: a change that reintroduces an O(routers^2) table shows up as a
// orders-of-magnitude jump, far beyond the 20%+slack limit.

import (
	"fmt"
	"runtime"
	"time"

	"dragonfly/internal/des"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

const scaleRoutePairs = 1000

// runScaleSuite measures every shape in the comma-separated spec list
// ("family[:routers]", resolved through the shared cliutil grammar by the
// caller) and returns their snapshot entries.
func runScaleSuite(machines []topology.Machine) ([]Benchmark, error) {
	out := make([]Benchmark, 0, len(machines))
	for _, m := range machines {
		b, err := measureScale(m)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func measureScale(m topology.Machine) (Benchmark, error) {
	liveBefore := liveBytes()
	start := time.Now()

	ic, err := m.Build()
	if err != nil {
		return Benchmark{}, fmt.Errorf("scale %s: %v", m.Label(), err)
	}
	eng := des.New()
	fab, err := network.New(eng, ic, network.DefaultParams(), routing.Adaptive, des.NewRNG(1, "scale"))
	if err != nil {
		return Benchmark{}, fmt.Errorf("scale %s: %v", m.Label(), err)
	}
	chooser := routing.NewChooserOpts(ic, routing.Adaptive, des.NewRNG(2, "scale-route"), fab, routing.Options{})
	buildNs := time.Since(start).Nanoseconds()

	// Route a fixed sample of distinct-router pairs; every path is validated
	// so the measurement doubles as a correctness probe at a scale the unit
	// tests never build.
	rng := des.NewRNG(3, "scale-pairs")
	routeStart := time.Now()
	routed := 0
	for routed < scaleRoutePairs {
		src := topology.NodeID(rng.Intn(ic.NumNodes()))
		dst := topology.NodeID(rng.Intn(ic.NumNodes()))
		p, err := chooser.TryRoute(src, dst)
		if err != nil {
			return Benchmark{}, fmt.Errorf("scale %s: route %d->%d: %v", m.Label(), src, dst, err)
		}
		if routed%97 == 0 { // sampled validation; full validation would dominate the timing
			if err := routing.Validate(ic, ic.RouterOfNode(src), ic.RouterOfNode(dst), p); err != nil {
				return Benchmark{}, fmt.Errorf("scale %s: invalid route %d->%d: %v", m.Label(), src, dst, err)
			}
		}
		chooser.Release(p)
		routed++
	}
	routeNs := time.Since(routeStart).Nanoseconds() / scaleRoutePairs

	liveAfter := liveBytes()
	runtime.KeepAlive(fab)
	runtime.KeepAlive(chooser)
	live := liveAfter - liveBefore
	if live < 0 {
		live = 0
	}

	name := fmt.Sprintf("ScaleBuild/%s-%d", ic.Name(), ic.NumRouters())
	return Benchmark{
		Name:       name,
		Iterations: 1,
		Metrics: map[string]float64{
			"ns/op":            float64(buildNs),
			"live_bytes/op":    float64(live),
			"bytes_per_router": float64(live) / float64(ic.NumRouters()),
			"route_ns/op":      float64(routeNs),
			"routers":          float64(ic.NumRouters()),
			"groups":           float64(ic.NumGroups()),
		},
	}, nil
}

// liveBytes returns the post-GC live heap size.
func liveBytes() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
