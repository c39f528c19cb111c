package routing

import (
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

// benchRoute measures steady-state route computation with the packet-like
// lifecycle the fabric uses: every returned path is Released, so arena
// recycling is in effect and the loop should allocate (close to) nothing.
func benchRoute(b *testing.B, topo topology.Interconnect, mech Mechanism, opts Options) {
	c := NewChooserOpts(topo, mech, des.NewRNG(1, "bench"), nil, opts)
	rng := des.NewRNG(2, "pairs")
	const pairs = 1024
	srcs := make([]topology.NodeID, pairs)
	dsts := make([]topology.NodeID, pairs)
	for i := range srcs {
		srcs[i] = topology.NodeID(rng.Intn(topo.NumNodes()))
		for {
			dsts[i] = topology.NodeID(rng.Intn(topo.NumNodes()))
			if dsts[i] != srcs[i] {
				break
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := c.Route(srcs[i%pairs], dsts[i%pairs])
		c.Release(p)
	}
}

func BenchmarkRouteMinimal(b *testing.B)  { benchRoute(b, topotest.Mini(b), Minimal, Options{}) }
func BenchmarkRouteAdaptive(b *testing.B) { benchRoute(b, topotest.Mini(b), Adaptive, Options{}) }

// Dragonfly+ equivalents: the SPI promises the same zero-allocation route
// hot path regardless of machine, so these sit in the default dfbench set
// next to the XC40 numbers.
func BenchmarkRoutePlusMinimal(b *testing.B) {
	benchRoute(b, topotest.PlusMini(b), Minimal, Options{})
}

func BenchmarkRoutePlusAdaptive(b *testing.B) {
	benchRoute(b, topotest.PlusMini(b), Adaptive, Options{})
}

// qadaptive equivalent: the learning policy fields the same candidate set
// through the same scratch and arena as adp, plus a constant-work Q-table
// update, so it is held to the same 0 allocs/op gate (its tables are sized
// once at Bind).
func BenchmarkRouteQAdaptive(b *testing.B) {
	benchRoute(b, topotest.Mini(b), QAdaptive, Options{})
}

// BenchmarkRouteMinimalNoCache is the pre-pooling baseline: fresh hop
// storage per call, kept so the arena win stays visible in one run.
func BenchmarkRouteMinimalNoCache(b *testing.B) {
	benchRoute(b, topotest.Mini(b), Minimal, Options{NoCache: true})
}

func BenchmarkRouteAdaptiveNoCache(b *testing.B) {
	benchRoute(b, topotest.Mini(b), Adaptive, Options{NoCache: true})
}

// Degraded-mode benchmarks: route computation with a quarter of the global
// links dead, through the same builders and policies as the healthy
// benchmarks above. They bound the fault-mode overhead and are held to the
// same 0 allocs/op gate: the live gateway picker works in chooser scratch.
func benchRouteFault(b *testing.B, mech Mechanism) {
	topo := topotest.Mini(b)
	set, err := faults.Resolve(&faults.Spec{GlobalFrac: 0.25, Seed: 3}, topo)
	if err != nil {
		b.Fatal(err)
	}
	c := NewChooserOpts(topo, mech, des.NewRNG(1, "bench"), nil, Options{Health: set})
	rng := des.NewRNG(2, "pairs")
	const pairs = 1024
	srcs := make([]topology.NodeID, 0, pairs)
	dsts := make([]topology.NodeID, 0, pairs)
	for len(srcs) < pairs {
		s := topology.NodeID(rng.Intn(topo.NumNodes()))
		d := topology.NodeID(rng.Intn(topo.NumNodes()))
		if s == d {
			continue
		}
		if _, err := c.TryRoute(s, d); err != nil {
			continue // keep the loop on the routable (steady-state) pairs
		}
		srcs = append(srcs, s)
		dsts = append(dsts, d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := c.TryRoute(srcs[i%pairs], dsts[i%pairs])
		if err != nil {
			b.Fatal(err)
		}
		c.Release(p)
	}
}

func BenchmarkRouteFaultMinimal(b *testing.B)   { benchRouteFault(b, Minimal) }
func BenchmarkRouteFaultAdaptive(b *testing.B)  { benchRouteFault(b, Adaptive) }
func BenchmarkRouteFaultQAdaptive(b *testing.B) { benchRouteFault(b, QAdaptive) }
