package network

import (
	"math"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

func miniFabric(t *testing.T, mech routing.Mechanism, seed int64) (*Fabric, *des.Engine) {
	t.Helper()
	eng := des.New()
	topo := topotest.Mini(t)
	f, err := New(eng, topo, DefaultParams(), mech, des.NewRNG(seed, "fabric"))
	if err != nil {
		t.Fatal(err)
	}
	return f, eng
}

func TestPingZeroLoadLatency(t *testing.T) {
	// Analytic self-validation (DESIGN.md substitution #3): a single-packet
	// message between same-row neighbors must take exactly
	// ser(term)+lat(term) + ser(local)+lat(local) + ser(term)+lat(term).
	f, eng := miniFabric(t, routing.Minimal, 1)
	topo := f.Topology().(*topology.Dragonfly)
	p := f.Params()
	src := topo.NodeAt(topo.RouterAt(0, 0, 0), 0)
	dst := topo.NodeAt(topo.RouterAt(0, 0, 1), 0)

	const bytes = 1000
	var injectedAt, deliveredAt des.Time = -1, -1
	f.Send(src, dst, bytes,
		func(at des.Time) { injectedAt = at },
		func(at des.Time) { deliveredAt = at })
	eng.Run()

	serTerm := serializationTime(bytes, p.TerminalBandwidth)
	serLocal := serializationTime(bytes, p.LocalBandwidth)
	want := serTerm + p.TerminalLatency + serLocal + p.LocalLatency + serTerm + p.TerminalLatency
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
	if injectedAt != serTerm {
		t.Fatalf("injected at %v, want %v", injectedAt, serTerm)
	}
}

func TestThroughputMatchesBottleneckBandwidth(t *testing.T) {
	// A large transfer over one local link must sustain ~local bandwidth
	// (local 5.25 GiB/s < terminal 16 GiB/s).
	f, eng := miniFabric(t, routing.Minimal, 2)
	topo := f.Topology().(*topology.Dragonfly)
	p := f.Params()
	src := topo.NodeAt(topo.RouterAt(0, 0, 0), 0)
	dst := topo.NodeAt(topo.RouterAt(0, 0, 1), 0)

	const bytes = 8 << 20 // 8 MiB
	var done des.Time
	f.Send(src, dst, bytes, nil, func(at des.Time) { done = at })
	eng.Run()

	gotBW := float64(bytes) / (float64(done) / 1e9) // bytes per second
	if gotBW > p.LocalBandwidth {
		t.Fatalf("throughput %.3g B/s exceeds local bandwidth %.3g", gotBW, p.LocalBandwidth)
	}
	if gotBW < 0.85*p.LocalBandwidth {
		t.Fatalf("throughput %.3g B/s below 85%% of local bandwidth %.3g", gotBW, p.LocalBandwidth)
	}
}

func TestAllToOneCausesSaturation(t *testing.T) {
	// Many senders converging on one node must exhaust some buffer: the
	// paper's link-saturation clock must record nonzero time.
	f, eng := miniFabric(t, routing.Minimal, 3)
	topo := f.Topology().(*topology.Dragonfly)
	dst := topology.NodeID(0)
	delivered := 0
	senders := 0
	for n := 1; n < topo.NumNodes(); n++ {
		f.Send(topology.NodeID(n), dst, 256<<10, nil, func(des.Time) { delivered++ })
		senders++
	}
	eng.Run()
	f.FinishStats()
	if delivered != senders {
		t.Fatalf("delivered %d/%d messages", delivered, senders)
	}
	var sat des.Time
	for _, ls := range f.LinkStats() {
		sat += ls.SatTime
	}
	if sat == 0 {
		t.Fatal("no link saturation recorded under an incast")
	}
}

func TestRandomTrafficAllDelivered(t *testing.T) {
	for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
		f, eng := miniFabric(t, mech, 4)
		topo := f.Topology().(*topology.Dragonfly)
		rng := des.NewRNG(7, "traffic")
		const msgs = 400
		var sent, delivered int64
		var sentBytes, gotBytes int64
		for i := 0; i < msgs; i++ {
			src := topology.NodeID(rng.Intn(topo.NumNodes()))
			dst := topology.NodeID(rng.Intn(topo.NumNodes()))
			if src == dst {
				continue
			}
			bytes := int64(rng.IntnRange(1, 64<<10))
			sent++
			sentBytes += bytes
			b := bytes
			f.Send(src, dst, bytes, nil, func(des.Time) { delivered++; gotBytes += b })
		}
		eng.Run()
		if delivered != sent {
			t.Fatalf("%v: delivered %d/%d messages (deadlock or drop)", mech, delivered, sent)
		}
		if gotBytes != sentBytes {
			t.Fatalf("%v: byte conservation violated: sent %d, received %d", mech, sentBytes, gotBytes)
		}
		if f.QueuedMessages() != 0 {
			t.Fatalf("%v: %d messages still queued", mech, f.QueuedMessages())
		}
	}
}

func TestTrafficCountersConserveBytes(t *testing.T) {
	f, eng := miniFabric(t, routing.Minimal, 5)
	topo := f.Topology().(*topology.Dragonfly)
	// One inter-group message: every traversed channel must count exactly
	// the message bytes (single-path minimal routing, one message).
	src := topo.NodeAt(topo.RouterAt(0, 0, 0), 0)
	dst := topo.NodeAt(topo.RouterAt(2, 1, 3), 0)
	const bytes = 10000
	f.Send(src, dst, bytes, nil, nil)
	eng.Run()
	f.FinishStats()
	var termBytes, routerBytes int64
	for _, ls := range f.LinkStats() {
		switch ls.Kind {
		case routing.Terminal:
			termBytes += ls.Bytes
		default:
			routerBytes += ls.Bytes
		}
	}
	if termBytes != 2*bytes {
		t.Fatalf("terminal channels carried %d bytes, want %d", termBytes, 2*bytes)
	}
	// Inter-group minimal paths traverse 1-5 router-to-router links; every
	// byte of the message crosses each link on its packet's path exactly
	// once, so the total lies within those bounds.
	if routerBytes < bytes || routerBytes > 5*bytes {
		t.Fatalf("router channels carried %d bytes, want within [%d, %d]", routerBytes, bytes, 5*bytes)
	}
}

func TestHopAccounting(t *testing.T) {
	f, eng := miniFabric(t, routing.Minimal, 6)
	topo := f.Topology().(*topology.Dragonfly)
	// Same-router delivery counts one router.
	a, b := topo.NodeAt(3, 0), topo.NodeAt(3, 1)
	f.Send(a, b, 100, nil, nil)
	eng.Run()
	avg, pkts := f.AvgHops(b)
	if pkts != 1 || avg != 1 {
		t.Fatalf("same-router AvgHops = %v over %d packets, want 1 over 1", avg, pkts)
	}
	// Unrelated node saw nothing.
	if _, pkts := f.AvgHops(a); pkts != 0 {
		t.Fatalf("node a received %d packets, want 0", pkts)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (des.Time, int64) {
		f, eng := miniFabric(t, routing.Adaptive, 42)
		topo := f.Topology().(*topology.Dragonfly)
		rng := des.NewRNG(99, "load")
		for i := 0; i < 300; i++ {
			src := topology.NodeID(rng.Intn(topo.NumNodes()))
			dst := topology.NodeID(rng.Intn(topo.NumNodes()))
			f.Send(src, dst, int64(rng.IntnRange(1, 32<<10)), nil, nil)
		}
		end := eng.Run()
		f.FinishStats()
		var bytes int64
		for _, ls := range f.LinkStats() {
			bytes += ls.Bytes
		}
		return end, bytes
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("nondeterministic: run1=(%v,%d) run2=(%v,%d)", t1, b1, t2, b2)
	}
}

func TestLoopbackAndZeroBytes(t *testing.T) {
	f, eng := miniFabric(t, routing.Minimal, 7)
	n := topology.NodeID(5)
	var loopDone, zeroDone bool
	f.Send(n, n, 1<<20, nil, func(des.Time) { loopDone = true })
	f.Send(n, topology.NodeID(6), 0, nil, func(des.Time) { zeroDone = true })
	eng.Run()
	if !loopDone {
		t.Fatal("loopback message never delivered")
	}
	if !zeroDone {
		t.Fatal("zero-byte message never delivered")
	}
}

func TestMultiPacketMessageReassembly(t *testing.T) {
	f, eng := miniFabric(t, routing.Adaptive, 8)
	topo := f.Topology().(*topology.Dragonfly)
	src := topo.NodeAt(topo.RouterAt(0, 0, 0), 0)
	dst := topo.NodeAt(topo.RouterAt(3, 1, 2), 1)
	const bytes = 100*4096 + 123 // forces a short tail packet
	deliveries := 0
	f.Send(src, dst, bytes, nil, func(des.Time) { deliveries++ })
	eng.Run()
	if deliveries != 1 {
		t.Fatalf("message delivered %d times, want exactly once", deliveries)
	}
	avg, pkts := f.AvgHops(dst)
	if pkts != 101 {
		t.Fatalf("delivered %d packets, want 101", pkts)
	}
	if avg < 1 || avg > 7 {
		t.Fatalf("avg hops %v outside plausible range", avg)
	}
}

func TestInvalidParamsRejected(t *testing.T) {
	topo := topotest.Mini(t)
	for name, mutate := range map[string]func(*Params){
		"local buffer smaller than a packet": func(p *Params) { p.LocalVCBuffer = 100 },
		"terminal buffer past int32":         func(p *Params) { p.TerminalVCBuffer = math.MaxInt32 + 1 },
		"local buffer past int32":            func(p *Params) { p.LocalVCBuffer = math.MaxInt32 + 1 },
		"global buffer past int32":           func(p *Params) { p.GlobalVCBuffer = math.MaxInt32 + 1 },
	} {
		p := DefaultParams()
		mutate(&p)
		if _, err := New(des.New(), topo, p, routing.Minimal, des.NewRNG(0, "x")); err == nil {
			t.Errorf("%s: fabric accepted the parameters", name)
		}
	}
	p := DefaultParams()
	p.TerminalVCBuffer, p.LocalVCBuffer, p.GlobalVCBuffer = math.MaxInt32, math.MaxInt32, math.MaxInt32
	if err := p.Validate(); err != nil {
		t.Errorf("buffers of 2^31-1 bytes rejected: %v", err)
	}
}

func TestSaturationClockClosesAtFinish(t *testing.T) {
	f, eng := miniFabric(t, routing.Minimal, 9)
	topo := f.Topology().(*topology.Dragonfly)
	// Saturate a path, then stop the engine early with RunUntil so some
	// buffers are still full; FinishStats must close the open intervals.
	dst := topology.NodeID(0)
	for n := 1; n < topo.NumNodes(); n++ {
		f.Send(topology.NodeID(n), dst, 512<<10, nil, nil)
	}
	eng.RunUntil(50 * des.Microsecond)
	f.FinishStats()
	var sat des.Time
	for _, ls := range f.LinkStats() {
		sat += ls.SatTime
		if ls.SatTime < 0 {
			t.Fatalf("negative saturation time on link %+v", ls)
		}
	}
	if sat == 0 {
		t.Fatal("no saturation measured mid-incast")
	}
}

func TestBackpressureOrderingPreserved(t *testing.T) {
	// Messages from one NIC to one destination must be injected in FIFO
	// order: deliveries of equal-size messages happen in send order.
	f, eng := miniFabric(t, routing.Minimal, 10)
	topo := f.Topology().(*topology.Dragonfly)
	src := topo.NodeAt(topo.RouterAt(0, 0, 0), 0)
	dst := topo.NodeAt(topo.RouterAt(0, 1, 1), 0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		f.Send(src, dst, 16<<10, nil, func(des.Time) { order = append(order, i) })
	}
	eng.Run()
	if len(order) != 10 {
		t.Fatalf("delivered %d/10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order %v not FIFO", order)
		}
	}
}
