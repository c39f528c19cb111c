package des

import (
	"container/heap"
	"fmt"
	"math/rand"
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

// checkQueueOrder drives an eventQueue and the reference heap through the
// monotone schedule ops encodes, then drains both. It reports the first
// pop whose (at, seq) differs, a length mismatch after any operation, or a
// slab that outgrew the peak number of resident events.
func checkQueueOrder(ops []byte) error {
	var q eventQueue
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

// TestEventQueueOrderProperty: under random monotone schedules the queue
// pops exactly the (at, seq) sequence container/heap does. Each schedule
// draws its operations from a random subset of the kinds, so some are
// dominated by same-time bursts, some by 2^40-scale delays, some by
// settles without pops, and some run at times near MaxTime.
func TestEventQueueOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		kinds := []byte{opPop}
		for k := byte(opPopToo); k <= opNearMax; k++ {
			if r.Intn(2) == 0 {
				kinds = append(kinds, k)
			}
		}
		ops := make([]byte, r.Intn(4000))
		for j := range ops {
			ops[j] = kinds[r.Intn(len(kinds))]<<5 | byte(r.Intn(32))
		}
		if err := checkQueueOrder(ops); err != nil {
			t.Fatalf("schedule %d (kinds %v): %v", i, kinds, err)
		}
	}
}

func FuzzEventQueue(f *testing.F) {
	op := func(kind, x byte) byte { return kind<<5 | x }
	f.Add([]byte{})
	f.Add([]byte{op(opBurst, 7), op(opNow, 0), op(opPop, 0), op(opNow, 0), op(opShort, 3)})
	f.Add([]byte{op(opLong, 31), op(opShort, 1), op(opPeek, 0), op(opShort, 2), op(opBurst, 2), op(opPop, 0)})
	f.Add([]byte{op(opNearMax, 5), op(opNearMax, 0), op(opPop, 0), op(opLong, 4), op(opBurst, 9)})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip() // TestEventQueueOrderProperty covers long schedules; here they only slow minimization
		}
		if err := checkQueueOrder(ops); err != nil {
			t.Fatal(err)
		}
	})
}
