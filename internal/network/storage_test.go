package network

import (
	"reflect"
	"sync"
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
// run short with messages still queued at NICs and packets on the wire,
// and closes it. It returns the closed fabric's storage.
func closedBusyFabric(t *testing.T, topo topology.Interconnect) *storage {
	t.Helper()
	eng := des.New()
	f, err := New(eng, topo, DefaultParams(), routing.Adaptive, des.NewRNG(3, "busy"))
	if err != nil {
		t.Fatal(err)
	}
	sendRandom(f, 4, 400)
	eng.RunUntil(20 * des.Microsecond)
	if f.QueuedMessages() == 0 || eng.Pending() == 0 || f.pkts.n == 0 {
		t.Fatalf("run cut short with %d queued messages, %d pending events, %d packets taken; want all > 0",
			f.QueuedMessages(), eng.Pending(), f.pkts.n)
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
	var f *Fabric
	var eng *des.Engine
	// The pool may drop what Close returns (it does so at random under the
	// race detector); close busy fabrics until New takes one back.
	for attempt := 0; ; attempt++ {
		home := closedBusyFabric(t, topo)
		eng = des.New()
		var err error
		if f, err = New(eng, topo, p, routing.Adaptive, des.NewRNG(5, "fabric")); err != nil {
			t.Fatal(err)
		}
		if f.home == home {
			break
		}
		if attempt == 100 {
			t.Fatal("New never took back a closed fabric's storage")
		}
	}

	for i := range f.links {
		l := &f.links[i]
		for _, r := range l.reqs[:cap(l.reqs)] {
			if r.pkt != nil || r.in != nil {
				t.Fatalf("link %d: a recycled request slot still points into the old run", i)
			}
		}
		for v := range l.inq {
			if q := &l.inq[v]; q.link != l || len(q.q) != 0 || q.head != 0 {
				t.Fatalf("link %d VC %d: input queue not reset", i, v)
			}
		}
	}
	for i := range f.nics {
		if n := &f.nics[i]; n.queued != 0 || n.head != nil || n.tail != nil {
			t.Fatalf("NIC %d starts with %d queued messages", i, n.queued)
		}
	}
	if f.pkts.n != 0 || f.msgs.n != 0 || f.credits.n != 0 ||
		len(f.pkts.chunks) != 0 || len(f.msgs.chunks) != 0 || len(f.credits.chunks) != 0 {
		t.Fatalf("slabs start with %d packets, %d messages, %d credits taken", f.pkts.n, f.msgs.n, f.credits.n)
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

// TestSlabReleaseZeroesChunks: release hands back every chunk it took with
// every value zeroed, so the chunk pool holds no pointer into a past run.
func TestSlabReleaseZeroesChunks(t *testing.T) {
	var pool sync.Pool
	s := slab[message]{pool: &pool}
	for i := 0; i < 2*slabChunk+3; i++ {
		m := s.take()
		m.id, m.next, m.onDelivered = uint64(i+1), m, func(des.Time) {}
	}
	taken := append([]*[slabChunk]message(nil), s.chunks...)
	s.release()
	if len(taken) != 3 || s.n != 0 || len(s.chunks) != 0 {
		t.Fatalf("took %d chunks; after release n = %d with %d chunks listed", len(taken), s.n, len(s.chunks))
	}
	for _, ch := range taken {
		for i := range ch {
			if !reflect.ValueOf(ch[i]).IsZero() {
				t.Fatal("a released message is not zero")
			}
		}
	}
}
