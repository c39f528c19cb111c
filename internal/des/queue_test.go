package des

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refEvent and refHeap are the order oracle: container/heap over explicit
// (at, seq) keys, the FIFO-tie-broken order the engine promises.
type refEvent struct {
	at  Time
	seq uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// Queue operations decoded from one byte: the top three bits pick the
// operation, the low five bits are its parameter x.
const (
	opPop     = iota // pop the earliest event
	opPopToo         // a second pop code, so queues drain as well as grow
	opNow            // schedule at now: a zero-delay push mid-drain
	opShort          // schedule at now+x
	opLong           // schedule at now+2^(x+9)-x: delays up to 2^40
	opBurst          // schedule x%8+1 events at one time, now+x
	opPeek           // settle without popping, as RunUntil does at its deadline
	opNearMax        // schedule at MaxTime-x
)

// checkQueueOrder drives q, which must be empty, and the reference heap
// through the monotone schedule ops encodes, then drains both. It reports
// the first pop whose (at, seq) differs, a length mismatch after any
// operation, or a slab that outgrew the peak number of resident events.
func checkQueueOrder(q *eventQueue, ops []byte) error {
	var ref refHeap
	var now Time
	var seq uint64
	peak := 0
	push := func(at Time) {
		if at < now || at > MaxTime {
			at = MaxTime // now+delay overflowed the schedulable range
		}
		seq++
		q.push(at, nil, seq)
		heap.Push(&ref, refEvent{at, seq})
		if q.len() > peak {
			peak = q.len()
		}
	}
	pop := func() error {
		at := q.peek()
		_, arg := q.pop()
		want := heap.Pop(&ref).(refEvent)
		if at != want.at || arg.(uint64) != want.seq {
			return fmt.Errorf("popped (at=%d, seq=%v), reference (at=%d, seq=%d)",
				at, arg, want.at, want.seq)
		}
		now = at
		return nil
	}
	for k, b := range ops {
		x := Time(b & 31)
		switch b >> 5 {
		case opPop, opPopToo:
			if q.len() > 0 {
				if err := pop(); err != nil {
					return fmt.Errorf("op %d: %w", k, err)
				}
			}
		case opNow:
			push(now)
		case opShort:
			push(now + x)
		case opLong:
			push(now + 1<<(x+9) - x)
		case opBurst:
			for j := Time(0); j <= x%8; j++ {
				push(now + x)
			}
		case opPeek:
			if q.len() > 0 {
				if got := q.peek(); got != ref[0].at {
					return fmt.Errorf("op %d: peek() = %d, reference minimum %d", k, got, ref[0].at)
				}
			}
		case opNearMax:
			if at := MaxTime - x; at >= now {
				push(at)
			} else {
				push(now)
			}
		}
		if q.len() != ref.Len() {
			return fmt.Errorf("op %d: len %d, reference %d", k, q.len(), ref.Len())
		}
	}
	for q.len() > 0 {
		if err := pop(); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	if ref.Len() != 0 {
		return fmt.Errorf("queue empty with %d reference events left", ref.Len())
	}
	if peak > 0 && len(q.slab) != peak+1 {
		return fmt.Errorf("slab holds %d slots for a peak of %d events", len(q.slab), peak)
	}
	return nil
}

// randomSchedule draws up to 4000 operations from a random subset of the
// kinds, so some schedules are dominated by same-time bursts, some by
// 2^40-scale delays, some by settles without pops, and some run at times
// near MaxTime.
func randomSchedule(r *rand.Rand) (ops, kinds []byte) {
	kinds = []byte{opPop}
	for k := byte(opPopToo); k <= opNearMax; k++ {
		if r.Intn(2) == 0 {
			kinds = append(kinds, k)
		}
	}
	ops = make([]byte, r.Intn(4000))
	for j := range ops {
		ops[j] = kinds[r.Intn(len(kinds))]<<5 | byte(r.Intn(32))
	}
	return ops, kinds
}

// TestEventQueueOrderProperty: under random monotone schedules the queue
// pops exactly the (at, seq) sequence container/heap does.
func TestEventQueueOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		ops, kinds := randomSchedule(r)
		if err := checkQueueOrder(new(eventQueue), ops); err != nil {
			t.Fatalf("schedule %d (kinds %v): %v", i, kinds, err)
		}
	}
}

// closedBusyEngine returns an engine that ran part of a schedule and was
// closed with events pending in both tiers, its watchdog armed and tripped
// and an observer installed: the dirtiest storage Close can hand to New.
func closedBusyEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	e.SetObserver(func(Time) {})
	e.SetWatchdog(40, 0, func() string { return "busy" })
	arg := new(int)
	nop := func(any, Time) {}
	for i := 0; i < 64; i++ {
		e.AtCall(Time(i*37), nop, arg)         // the wheel
		e.AtCall(Time(10_000+i*997), nop, arg) // the far tier
	}
	e.Run()
	if e.Tripped() == nil || e.pq.used == 0 || e.pq.mask == 0 {
		t.Fatalf("engine stopped with wheel %v, far tier %v, watchdog %v; want all set",
			e.pq.used != 0, e.pq.mask != 0, e.Tripped())
	}
	e.Close()
	return e
}

// TestClosedEngineTakenBackAsNew: an engine closed with wheel and far-tier
// events pending, taken back by New, holds none of its old callbacks or
// arguments and behaves as a new engine: nothing pending, the clock at 0,
// no watchdog or observer, and the queue-order property holds on it.
func TestClosedEngineTakenBackAsNew(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		closed := closedBusyEngine(t)
		e := New()
		if e != closed {
			t.Fatal("New did not take back the closed engine")
		}
		for _, ev := range e.pq.slab[:cap(e.pq.slab)] {
			if ev.cb != nil || ev.arg != nil {
				t.Fatal("a recycled slot still holds a callback or argument")
			}
		}
		if e.Pending() != 0 || e.Now() != 0 || e.Processed() != 0 || e.Tripped() != nil ||
			e.wdArmed || e.observer != nil {
			t.Fatalf("recycled engine: pending %d, now %v, processed %d, tripped %v, watchdog %v, observer %v",
				e.Pending(), e.Now(), e.Processed(), e.Tripped(), e.wdArmed, e.observer != nil)
		}
		ops, kinds := randomSchedule(r)
		if err := checkQueueOrder(&e.pq, ops); err != nil {
			t.Fatalf("schedule %d (kinds %v) on a recycled engine: %v", i, kinds, err)
		}
		e.Close()
	}
}

func FuzzEventQueue(f *testing.F) {
	op := func(kind, x byte) byte { return kind<<5 | x }
	f.Add([]byte{})
	f.Add([]byte{op(opBurst, 7), op(opNow, 0), op(opPop, 0), op(opNow, 0), op(opShort, 3)})
	f.Add([]byte{op(opLong, 31), op(opShort, 1), op(opPeek, 0), op(opShort, 2), op(opBurst, 2), op(opPop, 0)})
	f.Add([]byte{op(opNearMax, 5), op(opNearMax, 0), op(opPop, 0), op(opLong, 4), op(opBurst, 9)})
	// Window edges (W = wheelSize = 2048). A far event at 8188 watches the
	// clock step 6139, 6140, 6141: 2049, W and W-1 before it, so it stays
	// far twice and migrates on the third pop, before the pushes at now.
	f.Add([]byte{op(opLong, 4), op(opLong, 3), op(opPop, 0), op(opLong, 2), op(opPop, 0),
		op(opShort, 1), op(opPop, 0), op(opShort, 1), op(opPop, 0), op(opNow, 0), op(opBurst, 3)})
	// The pop at 4093 settles the far tier on 8188 without migrating it;
	// a far push at 8186 must then undo that settle.
	f.Add([]byte{op(opLong, 4), op(opLong, 3), op(opPop, 0), op(opLong, 3), op(opPop, 0), op(opNow, 0)})
	// A peek settles the far tier with the wheel empty; pushes then land
	// in the wheel (2046 = W-2) and in the far tier before the settled 8188.
	f.Add([]byte{op(opLong, 4), op(opPeek, 0), op(opLong, 2), op(opLong, 3), op(opShort, 5),
		op(opPop, 0), op(opLong, 3), op(opPeek, 0), op(opBurst, 2)})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip() // TestEventQueueOrderProperty covers long schedules; here they only slow minimization
		}
		if err := checkQueueOrder(new(eventQueue), ops); err != nil {
			t.Fatal(err)
		}
	})
}

// edgeQueue drives an eventQueue beside the reference heap through a
// schedule written out by hand.
type edgeQueue struct {
	q    eventQueue
	ref  refHeap
	seq  uint64
	peak int
}

func (d *edgeQueue) push(at Time) {
	d.seq++
	d.q.push(at, nil, d.seq)
	heap.Push(&d.ref, refEvent{at, d.seq})
	d.peak = max(d.peak, d.q.len())
}

// pop pops the earliest event and fails unless it is the reference's.
func (d *edgeQueue) pop(t *testing.T) {
	t.Helper()
	at := d.q.peek()
	_, arg := d.q.pop()
	want := heap.Pop(&d.ref).(refEvent)
	if at != want.at || arg.(uint64) != want.seq {
		t.Fatalf("popped (at=%d, seq=%v), reference (at=%d, seq=%d)", at, arg, want.at, want.seq)
	}
}

// drain pops everything and checks that no slot was allocated twice.
func (d *edgeQueue) drain(t *testing.T) {
	t.Helper()
	for d.q.len() > 0 {
		d.pop(t)
	}
	if len(d.q.slab) != d.peak+1 {
		t.Fatalf("slab holds %d slots for a peak of %d events", len(d.q.slab), d.peak)
	}
}

// far reports whether the far tier holds any event.
func (d *edgeQueue) far() bool { return d.q.mask != 0 }

// TestEventQueueWindowEdges pins the two-tier queue's hand-offs against the
// (at, seq) reference: far events entering the wheel ahead of later pushes
// at their time, pushes at delays W-1, W and W+1, and pushes on both sides
// of the window's end after a stop on a far-tier minimum.
func TestEventQueueWindowEdges(t *testing.T) {
	const W = wheelSize
	t.Run("far-to-wheel-handoff", func(t *testing.T) {
		var d edgeQueue
		d.push(5000) // beyond [0, W): far
		d.push(3000)
		d.push(10)
		d.pop(t) // base 10: the window ends at 2058, nothing moves
		if !d.far() {
			t.Fatal("events beyond the window left the far tier early")
		}
		d.pop(t) // base 3000: the window now covers 5000
		if d.far() {
			t.Fatal("far event at 5000 did not migrate when the window reached it")
		}
		d.push(5000) // direct pushes at 5000 queue behind the migrated one
		d.push(5000)
		d.push(3000)
		d.drain(t)
	})
	t.Run("delays-around-W", func(t *testing.T) {
		var d edgeQueue
		d.push(100)
		d.pop(t)            // base 100
		d.push(100 + W - 1) // wheel
		d.push(100 + W + 1) // far
		d.push(100 + W + 1)
		d.push(3000)
		d.push(101)
		// base 101: the far tier settles on 100+W+1 = base+W, which stays
		// far although its bucket's lower bound lies inside the window.
		d.pop(t)
		if !d.far() || d.q.last != 101+W {
			t.Fatalf("event at exactly base+W left the far tier (last=%d)", d.q.last)
		}
		d.push(101 + W - 1) // wheel
		d.push(101 + W)     // far, behind the two at that time
		d.push(101 + W + 1) // far
		d.push(102)
		d.pop(t)        // base 102: the three events at 101+W migrate
		d.push(101 + W) // = base+W-1: wheel, behind them
		d.push(102 + W) // far
		d.drain(t)
	})
	t.Run("stop-on-far-minimum", func(t *testing.T) {
		// RunUntil peeks, finds the minimum beyond its deadline and stops;
		// the peek settled the far tier with the wheel empty.
		e := New()
		var ran []refEvent
		var seq uint64
		at := func(when Time) {
			seq++
			s := seq
			e.At(when, func() {
				if e.Now() != when {
					t.Errorf("event %d scheduled at %d ran at %v", s, when, e.Now())
				}
				ran = append(ran, refEvent{when, s})
			})
		}
		at(1000)
		at(50_000)
		if got := e.RunUntil(20_000); got != 1000 {
			t.Fatalf("RunUntil stopped at %v, want 1000", got)
		}
		if e.pq.mask&1 == 0 || e.pq.last != 50_000 {
			t.Fatalf("stop did not settle the far tier on 50000 (last=%d)", e.pq.last)
		}
		// Now = base = 1000: pushes on both sides of base+W, far ones below
		// the settled minimum (the first undoes the settle), and one at it.
		for _, when := range []Time{1000 + W - 1, 1000 + W, 1000 + W + 1, 1000, 50_000, 1000 + W} {
			at(when)
		}
		e.Run()
		if len(ran) != int(seq) {
			t.Fatalf("ran %d of %d events", len(ran), seq)
		}
		if !sort.SliceIsSorted(ran, func(i, j int) bool {
			return ran[i].at < ran[j].at || ran[i].at == ran[j].at && ran[i].seq < ran[j].seq
		}) {
			t.Fatalf("events ran out of (at, seq) order: %v", ran)
		}
	})
}
