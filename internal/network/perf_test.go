package network

import (
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

// TestThetaScaleSmoke drives modest random traffic through the full-size
// Theta fabric to catch wiring or memory problems that Mini cannot expose.
func TestThetaScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine smoke test skipped in -short mode")
	}
	eng := des.New()
	topo := topotest.Theta(t)
	f, err := New(eng, topo, DefaultParams(), routing.Adaptive, des.NewRNG(1, "theta"))
	if err != nil {
		t.Fatal(err)
	}
	rng := des.NewRNG(2, "load")
	const msgs = 2000
	delivered := 0
	for i := 0; i < msgs; i++ {
		src := topology.NodeID(rng.Intn(topo.NumNodes()))
		dst := topology.NodeID(rng.Intn(topo.NumNodes()))
		f.Send(src, dst, int64(rng.IntnRange(1, 190<<10)), nil, func(des.Time) { delivered++ })
	}
	eng.Run()
	if delivered != msgs {
		t.Fatalf("delivered %d/%d", delivered, msgs)
	}
	t.Logf("events processed: %d, simulated time: %v", eng.Processed(), eng.Now())
}

func BenchmarkFabricRandomTraffic(b *testing.B)     { benchFabric(b, topotest.Mini(b)) }
func BenchmarkFabricRandomTrafficPlus(b *testing.B) { benchFabric(b, topotest.PlusMini(b)) }

// benchFabric times whole fabric lifetimes — New, 500 random messages,
// drain, Close — so, as in a sweep, each iteration runs on the storage the
// previous one closed.
func benchFabric(b *testing.B, topo topology.Interconnect) {
	for i := 0; i < b.N; i++ {
		eng := des.New()
		f, err := New(eng, topo, DefaultParams(), routing.Adaptive, des.NewRNG(1, "bench"))
		if err != nil {
			b.Fatal(err)
		}
		rng := des.NewRNG(2, "load")
		for m := 0; m < 500; m++ {
			src := topology.NodeID(rng.Intn(topo.NumNodes()))
			dst := topology.NodeID(rng.Intn(topo.NumNodes()))
			f.Send(src, dst, int64(rng.IntnRange(1, 64<<10)), nil, nil)
		}
		eng.Run()
		f.Close()
		eng.Close()
	}
}
