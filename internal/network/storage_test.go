package network

import (
	"reflect"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

// sendRandom queues n random messages, the same ones for equal seeds.
func sendRandom(f *Fabric, seed int64, n int) {
	rng := des.NewRNG(seed, "load")
	nodes := f.Topology().NumNodes()
	for m := 0; m < n; m++ {
		src := topology.NodeID(rng.Intn(nodes))
		dst := topology.NodeID(rng.Intn(nodes))
		f.Send(src, dst, int64(rng.IntnRange(1, 64<<10)), nil, nil)
	}
}

// closedBusyFabric builds an adaptive mini fabric, cuts a random-traffic
// run short with messages still queued at NICs, requests queued at links,
// packets buffered at routers and packets on the wire, and closes it. It returns the closed fabric's storage.
func closedBusyFabric(t *testing.T, topo topology.Interconnect) *storage {
	t.Helper()
	eng := des.New()
	f, err := New(eng, topo, DefaultParams(), routing.Adaptive, des.NewRNG(3, "busy"))
	if err != nil {
		t.Fatal(err)
	}
	sendRandom(f, 4, 400)
	eng.RunUntil(20 * des.Microsecond)
	requesting, buffering := 0, 0
	for i := range f.links {
		l := &f.links[i]
		if l.rhead != nil {
			requesting++
		}
		for _, q := range l.inq {
			if q.head != nil {
				buffering++
			}
		}
	}
	if f.QueuedMessages() == 0 || eng.Pending() == 0 || f.pkts.n == 0 || requesting == 0 || buffering == 0 {
		t.Fatalf("run cut short with %d queued messages, %d pending events, %d packets taken, %d request FIFOs and %d input queues non-empty; want all > 0",
			f.QueuedMessages(), eng.Pending(), f.pkts.n, requesting, buffering)
	}
	home := f.home
	f.Close()
	eng.Close()
	return home
}

// TestClosedStorageTakenBackAsNew: New takes back the storage a fabric
// closed with traffic in flight, and the fabric built on it holds nothing
// of that run and runs exactly as one built on fresh memory.
func TestClosedStorageTakenBackAsNew(t *testing.T) {
	topo := topotest.Mini(t)
	p := DefaultParams()
	home := closedBusyFabric(t, topo)
	eng := des.New()
	f, err := New(eng, topo, p, routing.Adaptive, des.NewRNG(5, "fabric"))
	if err != nil {
		t.Fatal(err)
	}
	if f.home != home {
		t.Fatal("New did not take back the closed fabric's storage")
	}

	for i := range f.links {
		l := &f.links[i]
		if l.rhead != nil || l.rtail != nil || l.pending != 0 {
			t.Fatalf("link %d: the request FIFO still points into the old run", i)
		}
		for v, q := range l.inq {
			if q.head != nil || q.tail != nil {
				t.Fatalf("link %d VC %d: the input queue still points into the old run", i, v)
			}
		}
	}
	for i := range f.nics {
		if n := &f.nics[i]; n.queued != 0 || n.head != nil || n.tail != nil {
			t.Fatalf("NIC %d starts with %d queued messages", i, n.queued)
		}
	}
	if f.pkts.n != 0 || f.msgs.n != 0 || f.credits.n != 0 {
		t.Fatalf("slabs start with %d packets, %d messages, %d credits taken", f.pkts.n, f.msgs.n, f.credits.n)
	}
	if len(f.pkts.chunks) == 0 || len(f.msgs.chunks) == 0 || len(f.credits.chunks) == 0 {
		t.Fatal("the taken-back slabs hold no chunks")
	}

	fresh := p
	fresh.NoPacketPool = true
	freshEng := des.New()
	ref, err := New(freshEng, topo, fresh, routing.Adaptive, des.NewRNG(5, "fabric"))
	if err != nil {
		t.Fatal(err)
	}
	if ref.home != nil {
		t.Fatal("NoPacketPool fabric took pooled storage")
	}
	for _, run := range []struct {
		f   *Fabric
		eng *des.Engine
	}{{f, eng}, {ref, freshEng}} {
		sendRandom(run.f, 6, 500)
		run.eng.Run()
		run.f.FinishStats()
	}
	if eng.Now() != freshEng.Now() || eng.Processed() != freshEng.Processed() {
		t.Fatalf("recycled storage ran to %v in %d events, fresh memory to %v in %d",
			eng.Now(), eng.Processed(), freshEng.Now(), freshEng.Processed())
	}
	if !reflect.DeepEqual(f.LinkStats(), ref.LinkStats()) {
		t.Fatal("link statistics differ between recycled and fresh storage")
	}
}

// TestSlabReleaseZeroesChunks: release zeroes every value taken and keeps
// the chunks, so the recycled storage holds no pointer into a past run and
// the next run takes values from the same chunks.
func TestSlabReleaseZeroesChunks(t *testing.T) {
	var s slab[message]
	for i := 0; i < 2*slabChunk+3; i++ {
		m := s.take()
		m.id, m.next, m.onDelivered = uint64(i+1), m, func(des.Time) {}
	}
	taken := append([]*[slabChunk]message(nil), s.chunks...)
	s.release()
	if len(taken) != 3 || s.n != 0 || !reflect.DeepEqual(s.chunks, taken) {
		t.Fatalf("took %d chunks; after release n = %d with %d chunks kept", len(taken), s.n, len(s.chunks))
	}
	for _, ch := range taken {
		for i := range ch {
			if !reflect.ValueOf(ch[i]).IsZero() {
				t.Fatal("a released message is not zero")
			}
		}
	}
	if m := s.take(); m != &taken[0][0] {
		t.Fatal("the next run does not take values from the kept chunks")
	}
}

// TestStorageOfFarLargerMachineDropped: a fabric on a machine more than
// four times smaller than the one whose storage waits in the pool drops it
// and builds its own, so a Theta run's links and NICs do not stay
// reachable through later runs on a small machine.
func TestStorageOfFarLargerMachineDropped(t *testing.T) {
	eng := des.New()
	big, err := New(eng, topotest.Theta(t), DefaultParams(), routing.Adaptive, des.NewRNG(1, "fabric"))
	if err != nil {
		t.Fatal(err)
	}
	home := big.home
	big.Close()
	eng.Close()
	mini := topotest.Mini(t)
	eng = des.New()
	f, err := New(eng, mini, DefaultParams(), routing.Adaptive, des.NewRNG(1, "fabric"))
	if err != nil {
		t.Fatal(err)
	}
	if f.home == home || cap(f.nics) > 4*mini.NumNodes() {
		t.Fatalf("a fabric on %d nodes kept storage for %d", mini.NumNodes(), cap(f.nics))
	}
	f.Close()
	eng.Close()
}
