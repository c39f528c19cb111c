package network

import (
	"math/rand"
	"testing"
	"unsafe"

	"dragonfly/internal/routing"
)

// TestLinkLayout pins the link's cache layout: the fields read on every
// kick, arrival and credit lie in its first 128 bytes, and its size is a
// multiple of 64, so every link of the fabric's slice starts on a cache
// line and the hot fields span two lines. A field added in the wrong place
// fails here instead of costing every event a third line.
func TestLinkLayout(t *testing.T) {
	var l link
	if size := unsafe.Sizeof(l); size%64 != 0 {
		t.Errorf("link is %d bytes, not a multiple of 64: adjust its padding", size)
	}
	hot := []struct {
		name      string
		off, size uintptr
	}{
		{"f", unsafe.Offsetof(l.f), unsafe.Sizeof(l.f)},
		{"rhead", unsafe.Offsetof(l.rhead), unsafe.Sizeof(l.rhead)},
		{"rtail", unsafe.Offsetof(l.rtail), unsafe.Sizeof(l.rtail)},
		{"busyUntil", unsafe.Offsetof(l.busyUntil), unsafe.Sizeof(l.busyUntil)},
		{"kickAt", unsafe.Offsetof(l.kickAt), unsafe.Sizeof(l.kickAt)},
		{"pending", unsafe.Offsetof(l.pending), unsafe.Sizeof(l.pending)},
		{"latency", unsafe.Offsetof(l.latency), unsafe.Sizeof(l.latency)},
		{"xferMax", unsafe.Offsetof(l.xferMax), unsafe.Sizeof(l.xferMax)},
		{"occ", unsafe.Offsetof(l.occ), unsafe.Sizeof(l.occ)},
		{"vcCap", unsafe.Offsetof(l.vcCap), unsafe.Sizeof(l.vcCap)},
		{"satAt", unsafe.Offsetof(l.satAt), unsafe.Sizeof(l.satAt)},
		{"fullVCs", unsafe.Offsetof(l.fullVCs), unsafe.Sizeof(l.fullVCs)},
		{"to", unsafe.Offsetof(l.to), unsafe.Sizeof(l.to)},
		{"node", unsafe.Offsetof(l.node), unsafe.Sizeof(l.node)},
		{"kind", unsafe.Offsetof(l.kind), unsafe.Sizeof(l.kind)},
		{"eject", unsafe.Offsetof(l.eject), unsafe.Sizeof(l.eject)},
		{"down", unsafe.Offsetof(l.down), unsafe.Sizeof(l.down)},
		{"bytesTx", unsafe.Offsetof(l.bytesTx), unsafe.Sizeof(l.bytesTx)},
		{"packets", unsafe.Offsetof(l.packets), unsafe.Sizeof(l.packets)},
		{"bw", unsafe.Offsetof(l.bw), unsafe.Sizeof(l.bw)},
	}
	for _, h := range hot {
		if h.off+h.size > 128 {
			t.Errorf("hot field %s at bytes %d-%d, past the first 128", h.name, h.off, h.off+h.size)
		}
	}
	f, _ := miniFabric(t, routing.Minimal, 1)
	if addr := uintptr(unsafe.Pointer(&f.links[0])); addr%64 != 0 {
		t.Errorf("the fabric's links start at %#x, not on a cache line", addr)
	}
}

// dropRecorder is an Observer that records the messages of dropped packets
// in order; the other hooks it implements ignore their events.
type dropRecorder struct {
	Observer // nil: any hook not implemented below panics
	dropped  []uint64
}

func (r *dropRecorder) BufferReserve(linkID, vc, bytes, occAfter int) {}
func (r *dropRecorder) BufferRelease(linkID, vc, bytes, occAfter int) {}
func (r *dropRecorder) PacketDropped(msgID uint64, bytes int, droppedBytes int64, injected bool) {
	r.dropped = append(r.dropped, msgID)
}

// TestRequestFIFOMatchesReference drives one local link's request FIFO
// with random injection and buffered requests, random per-VC credit and
// accepts, then fails the link, and checks the FIFO after every step
// against a slice FIFO with VC skipping: which request each transmit
// accepts, the queue and pending bytes it leaves, the input queue a
// buffered request leaves, and the order failLink drains the rest in.
func TestRequestFIFOMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f, _ := miniFabric(t, routing.Minimal, seed)
		rec := &dropRecorder{}
		f.obs = rec
		var l *link
		for i := range f.links {
			if f.links[i].kind == routing.Local {
				l = &f.links[i]
				break
			}
		}
		// Buffered requests wait at the head of an input queue of a link
		// into l's router, one request per queue.
		type inq struct {
			up *link
			vc int
		}
		var queues []inq
		for i := range f.links {
			if up := &f.links[i]; up.to == l.from && !up.eject {
				for v := 0; v < int(up.numVC); v++ {
					queues = append(queues, inq{up, v})
				}
			}
		}

		var ref []*packet // the reference FIFO
		for step := 0; step < 300; step++ {
			bytes := 1 + rng.Intn(f.params.PacketBytes)
			if rng.Intn(4) == 0 {
				bytes = f.params.PacketBytes
			}
			switch op := rng.Intn(10); {
			case op < 3: // an injection request
				p := f.newPacket(f.newMessage(0, 1, int64(bytes), nil, nil), bytes, routing.Path{})
				l.enqueue(p, int32(rng.Intn(int(l.numVC))))
				ref = append(ref, p)
			case op < 6: // a buffered request from a free input queue
				q := queues[rng.Intn(len(queues))]
				if q.up.inq[q.vc].head != nil {
					continue
				}
				p := f.newPacket(f.newMessage(0, 1, int64(bytes), nil, nil), bytes, routing.Path{})
				p.arrLink, p.arrVC = q.up, int32(q.vc)
				q.up.occ[q.vc] += int32(bytes)
				q.up.inq[q.vc].push(p)
				l.enqueue(p, int32(rng.Intn(int(l.numVC))))
				ref = append(ref, p)
			default: // random credit, then one arbitration
				for v := 0; v < int(l.numVC); v++ {
					l.occ[v] = int32(rng.Intn(int(l.vcCap) + 1))
				}
				occ := l.occ
				want := -1
				for i, p := range ref {
					if int(occ[p.reqVC])+p.bytes <= int(l.vcCap) {
						want = i
						break
					}
				}
				l.busyUntil = 0
				l.transmit()
				if want < 0 {
					if l.occ != occ {
						t.Fatalf("seed %d step %d: nothing had credit, yet transmit reserved %v -> %v", seed, step, occ, l.occ)
					}
					break
				}
				p := ref[want]
				ref = append(ref[:want], ref[want+1:]...)
				vc := p.reqVC
				if p.arrLink != l || p.arrVC != vc || l.occ[vc] != occ[vc]+int32(p.bytes) {
					t.Fatalf("seed %d step %d: transmit did not accept request %d (VC %d, %d bytes) of the reference FIFO",
						seed, step, want, vc, p.bytes)
				}
				for _, q := range queues {
					if q.up.inq[q.vc].head == p {
						t.Fatalf("seed %d step %d: the accepted packet still heads its input queue", seed, step)
					}
				}
			}
			checkFIFO(t, l, ref)
		}

		// failLink drains what is left in FIFO order, releasing the
		// upstream buffer of each buffered request. Accepted ones keep
		// theirs reserved until their credit returns.
		var want []uint64
		occAfter := map[*link][routing.NumLocalVC]int32{}
		for _, q := range queues {
			occAfter[q.up] = q.up.occ
		}
		for _, p := range ref {
			want = append(want, p.msg.id)
			if p.arrLink != nil {
				o := occAfter[p.arrLink]
				o[p.arrVC] -= int32(p.bytes)
				occAfter[p.arrLink] = o
			}
		}
		f.failLink(l)
		checkFIFO(t, l, nil)
		if len(rec.dropped) != len(want) {
			t.Fatalf("seed %d: failLink dropped %d requests, want %d", seed, len(rec.dropped), len(want))
		}
		for i := range want {
			if rec.dropped[i] != want[i] {
				t.Fatalf("seed %d: failLink dropped message %d as request %d, want %d", seed, rec.dropped[i], i, want[i])
			}
		}
		for _, q := range queues {
			if q.up.inq[q.vc].head != nil || q.up.occ != occAfter[q.up] {
				t.Fatalf("seed %d: failLink left a buffered request in its input queue, or released the wrong buffers", seed)
			}
		}
	}
}

// checkFIFO fails the test unless l's request FIFO holds exactly ref, in
// order, with matching tail and pending bytes.
func checkFIFO(t *testing.T, l *link, ref []*packet) {
	t.Helper()
	var got []*packet
	var pending int64
	for p := l.rhead; p != nil; p = p.rnext {
		got = append(got, p)
		pending += int64(p.bytes)
		if len(got) > len(ref) {
			break
		}
	}
	if len(got) != len(ref) {
		t.Fatalf("FIFO holds %d requests or more, reference %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("FIFO request %d differs from the reference", i)
		}
	}
	if (len(ref) == 0) != (l.rtail == nil) || len(ref) > 0 && l.rtail != ref[len(ref)-1] || l.pending != pending {
		t.Fatalf("FIFO tail or pending bytes (%d, want %d) out of step", l.pending, pending)
	}
}
