// Package des provides a deterministic sequential discrete-event simulation
// engine and named, reproducible random-number streams.
//
// Events run in time order, and events at the same time run in the order
// they were scheduled. The queue behind that order has two tiers, both
// built on the one fact a DES guarantees: simulated time never moves
// backwards. Events due within a short window after the engine clock sit
// in a timing wheel of per-nanosecond FIFO slots, where a bitmap scan
// finds the next one; later events wait in a monotone radix heap, which
// buckets them by the highest bit in which their time differs from its
// earliest pending time, and move into the wheel as the clock brings them
// inside the window.
//
// It is the substitute for the ROSS parallel discrete-event core that CODES
// runs on. The paper uses parallel execution only for simulator speed; a
// sequential engine is bit-reproducible and sufficient at this scale, and
// its single-thread queue is what bounds how fast results are produced.
package des

import (
	"fmt"
	"math"
	"math/bits"

	"dragonfly/internal/recycle"
)

// Time is simulated time in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the latest schedulable instant: scheduling past it panics.
// Run drains the queue by running until MaxTime; it also serves callers that
// need an "unbounded" deadline for RunUntil. It is below math.MaxInt64 so
// that small offsets added to it, such as the event queue's window end, do
// not overflow.
const MaxTime Time = 1<<62 - 1

// Milliseconds reports t as a floating-point millisecond count, the unit the
// paper's figures use.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Callback is a typed event handler: a plain function pointer plus an
// opaque argument. The engine passes the event's timestamp so handlers need
// not capture it. Hot-path callers schedule a package-level function with a
// pointer-shaped arg (struct pointer, func value), which heap-allocates
// nothing; closures remain available through the At/Schedule shims for cold
// callers.
type Callback func(arg any, at Time)

// event is one slot of the queue's slab: a scheduled callback, or a free
// slot awaiting reuse. next threads it through a bucket's FIFO list or the
// free list; index 0 is the slab's unused nil link.
type event struct {
	at   Time
	cb   Callback
	arg  any
	next uint32
}

// wheelSize is the timing wheel's span W in nanoseconds, a power of two.
// It covers the fabric's scheduling horizon (at most 1314 ns ahead for
// 4 KiB packets under DefaultParams), so nearly every event the fabric
// schedules skips the radix heap.
const wheelSize = 2048

// eventQueue holds the pending events in two tiers over one slab of slots.
//
// The near tier is a timing wheel: wheelSize per-nanosecond FIFO slots
// covering [base, base+wheelSize), where base is the time of the latest
// pop (the engine clock, never a peeked time). An event at t lives in slot
// t mod wheelSize; one bit per slot, and one summary bit per 64 slots,
// find the next non-empty slot in at most three word scans. A push inside
// the window is a list append, and a pop takes the head of the first
// non-empty slot.
//
// The far tier is a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
// JACM 1990) holding the events at or beyond base+wheelSize. last is the
// time of its settled minimum and no far event is earlier. A far event at
// t lives in bucket bits.Len64(t ^ last): bucket 0 holds exactly the
// events at last, and bucket b > 0 the times whose highest bit differing
// from last is bit b-1, so every time in a bucket precedes every time in
// a higher one. Settling makes the lowest non-empty bucket's minimum the
// new last and relinks that bucket's events into strictly lower buckets,
// so an event moves at most once per bucket over its life.
//
// Every pop that advances base migrates the far events now inside the
// window into the wheel before the popped event's callback runs: while
// the lowest non-empty far bucket can hold a time below base+wheelSize,
// the far tier settles and bucket 0 moves wholesale onto its wheel slot.
// The wheel therefore always holds every pending event inside the window,
// and the far tier only ever supplies the minimum when the wheel is empty.
// A far push earlier than last follows a settle whose minimum lay beyond
// the window: one made by a migration check, or by a peek on an empty
// wheel after which RunUntil or the watchdog stopped. unsettle then undoes
// that settle first.
//
// Every list is FIFO and threaded through the slab, and slots return to a
// free list: the queue's memory is one growable slice plus the fixed wheel
// arrays, and steady state allocates nothing. Both outlive the engine: Close
// hands them to the next New (see enginePool). Events with equal times
// always share one list, and appending, relinking and migrating all keep
// list order. A far event at t was pushed while t lay beyond the window,
// so before any push at t could land in the wheel, and it migrates before
// such a push can happen. Equal times thus pop in scheduling order with no
// sequence number.
type eventQueue struct {
	slab []event
	free uint32 // head of the free-slot list; 0 when empty
	n    int

	// Near tier: the timing wheel. A slot's first and last event sit side
	// by side, so appending to a slot touches one cache line of the wheel.
	base  Time
	cur   uint32                 // slot of the minimum found by the latest peek
	used  uint64                 // bit w set iff occ[w] != 0
	occ   [wheelSize / 64]uint64 // bit s%64 of occ[s/64] set iff slot s is non-empty
	wheel [wheelSize]struct {
		head, tail uint32 // the slot's first and last event while its bit is set
	}

	// Far tier: the radix heap.
	mask uint64     // bit b set iff bucket b is non-empty
	head [64]uint32 // bucket b's first and last slot while its mask bit is set
	tail [64]uint32
	last Time
	prev Time // last before the latest settle
}

func (q *eventQueue) len() int { return q.n }

// push appends an event at time at to its wheel slot or far bucket. A time
// before base, which is the engine clock, or past MaxTime panics.
func (q *eventQueue) push(at Time, cb Callback, arg any) {
	if at < q.base || at > MaxTime {
		q.badTime(at)
	}
	i := q.free
	if i != 0 {
		q.free = q.slab[i].next
	} else {
		if len(q.slab) == 0 {
			q.slab = append(q.slab, event{}) // slot 0 is the nil link
		}
		if i = uint32(len(q.slab)); i == 0 {
			panic("des: event queue outgrew 2^32 slots")
		}
		q.slab = append(q.slab, event{})
	}
	// Field stores, not a struct literal: the literal would zero the slot
	// through a bulk write barrier first whenever the GC is marking.
	ev := &q.slab[i]
	ev.at, ev.cb, ev.arg, ev.next = at, cb, arg, 0
	q.n++
	if at-q.base < wheelSize {
		q.wlink(uint32(at)&(wheelSize-1), i, i)
		return
	}
	if at < q.last {
		q.unsettle()
	}
	q.link(bits.Len64(uint64(at^q.last)), i, i)
}

// wlink appends the list from slot first to slot end, whose next must be
// 0, to wheel slot s.
func (q *eventQueue) wlink(s, first, end uint32) {
	w, bit := s>>6, uint64(1)<<(s&63)
	ws := &q.wheel[s]
	if q.occ[w]&bit == 0 {
		ws.head = first
		q.occ[w] |= bit
		q.used |= 1 << w
	} else {
		q.slab[ws.tail].next = first
	}
	ws.tail = end
}

// link appends the list from slot first to slot end, whose next must be 0,
// to far bucket b.
func (q *eventQueue) link(b int, first, end uint32) {
	if q.mask&(1<<b) == 0 {
		q.head[b] = first
		q.mask |= 1 << b
	} else {
		q.slab[q.tail[b]].next = first
	}
	q.tail[b] = end
}

// peek returns the earliest pending time. The queue must be non-empty.
// With the wheel empty it settles the far tier, whose minimum is then the
// earliest.
func (q *eventQueue) peek() Time {
	if q.used == 0 {
		if q.mask&1 == 0 {
			q.settle()
		}
		return q.last
	}
	p := uint32(q.base) & (wheelSize - 1)
	w := p >> 6
	if m := q.occ[w] >> (p & 63); m != 0 {
		q.cur = p + uint32(bits.TrailingZeros64(m))
	} else {
		// The words after w, else wrap around to the ring's start; slots
		// below p hold the window's latest times.
		u := q.used &^ (2<<w - 1)
		if u == 0 {
			u = q.used
		}
		w = uint32(bits.TrailingZeros64(u))
		q.cur = w<<6 | uint32(bits.TrailingZeros64(q.occ[w]))
	}
	return q.base + Time((q.cur-p)&(wheelSize-1))
}

// pop removes the earliest event, FIFO among equal times, and returns its
// callback. A peek must have run since the last push or pop. When the pop
// advances base, the far events the window now covers move into the wheel
// before pop returns.
func (q *eventQueue) pop() (Callback, any) {
	if q.used == 0 {
		// peek settled the far tier: its minimum opens the new window.
		q.base = q.last
		q.migrate()
		q.cur = uint32(q.base) & (wheelSize - 1)
	}
	s := q.cur
	i := q.wheel[s].head
	ev := &q.slab[i]
	cb, arg, at := ev.cb, ev.arg, ev.at
	if q.wheel[s].head = ev.next; ev.next == 0 {
		w := s >> 6
		if q.occ[w] &^= 1 << (s & 63); q.occ[w] == 0 {
			q.used &^= 1 << w
		}
	}
	// Drop cb/arg so their targets can be collected, and free the slot.
	ev.cb, ev.arg, ev.next = nil, nil, q.free
	q.free = i
	q.n--
	if at != q.base {
		q.base = at
		if q.mask != 0 {
			q.migrate()
		}
	}
	return cb, arg
}

// migrate moves every far event inside the window [base, base+wheelSize)
// into the wheel, in time order, by relinking whole bucket-0 lists onto
// their wheel slots. A slot receiving a far list is empty: no push at its
// time could have reached the wheel while that time lay beyond the window.
// The far tier settles only when its lowest non-empty bucket b can hold a
// time inside the window, that is when the bucket's lower bound, last with
// its low b bits cleared and bit b-1 set, is below base+wheelSize.
func (q *eventQueue) migrate() {
	end := q.base + wheelSize
	for q.mask != 0 {
		if q.mask&1 == 0 {
			b := bits.TrailingZeros64(q.mask)
			if q.last&^(1<<b-1)|1<<(b-1) >= end {
				return
			}
			q.settle()
		}
		if q.last >= end {
			return
		}
		q.wlink(uint32(q.last)&(wheelSize-1), q.head[0], q.tail[0])
		q.mask &^= 1
	}
}

// settle makes the minimum of the lowest non-empty far bucket the new last
// and relinks that bucket's events, in list order, into the buckets below
// it, which are empty. Bucket 0 must be empty and some bucket non-empty.
func (q *eventQueue) settle() {
	b := bits.TrailingZeros64(q.mask)
	q.mask &^= 1 << b
	i := q.head[b]
	lo := q.slab[i].at
	for j := q.slab[i].next; j != 0; j = q.slab[j].next {
		if at := q.slab[j].at; at < lo {
			lo = at
		}
	}
	q.prev, q.last = q.last, lo
	for i != 0 {
		ev := &q.slab[i]
		next := ev.next
		ev.next = 0
		q.link(bits.Len64(uint64(ev.at^lo)), i, i)
		i = next
	}
}

// unsettle undoes the latest settle, so that a far event between prev and
// last can be queued. No far event has left since that settle: only a
// migration removes far events, it takes bucket 0 only at a last inside
// the window, and no far push is earlier than the window's end. The settle
// emptied bucket b = bits.Len64(prev ^ last) into the buckets below it.
// Bucket b has stayed empty, since last has bit b-1 set and no later time
// can first differ from it there, and higher buckets mean the same around
// prev and last. Splicing the lower buckets back into b therefore restores
// the queue around prev; equal times share one list, so their FIFO order
// survives. prev precedes the window's end (it was a last whose bucket 0
// had emptied), so one unsettle always suffices.
func (q *eventQueue) unsettle() {
	b := bits.Len64(uint64(q.prev ^ q.last))
	low := q.mask & (1<<b - 1)
	q.mask &^= low
	for ; low != 0; low &= low - 1 {
		j := bits.TrailingZeros64(low)
		q.link(b, q.head[j], q.tail[j])
	}
	q.last = q.prev
}

// Engine is a sequential discrete-event simulator. The zero value is ready
// to use at time 0; New also recycles the storage of closed engines.
type Engine struct {
	pq        eventQueue
	now       Time
	processed uint64
	running   bool
	observer  func(Time)

	// stop is the latest event time the running RunUntil may execute: its
	// deadline or the watchdog's time limit, whichever is earlier, or -1
	// once Halt is called, which also sets halted.
	stop   Time
	halted bool

	// Livelock watchdog (see SetWatchdog). wdArmed folds both limits into
	// one branch in Step.
	wdArmed     bool
	wdMaxEvents uint64
	wdMaxTime   Time
	wdDiag      func() string
	wdErr       *WatchdogError
}

// SetObserver installs fn to be called with the timestamp of every executed
// event, before its handler runs. A nil fn removes the observer. The hook
// exists for the invariant auditor (package audit), which witnesses that
// simulated time is non-negative and monotone; it costs one nil check per
// event when unused.
func (e *Engine) SetObserver(fn func(Time)) { e.observer = fn }

// enginePool holds closed engines, whose slot slab and wheel arrays a later
// New reuses. A New on one worker may take what a Close on another
// returned; the pool orders the two.
var enginePool recycle.Pool // *Engine

// New returns an engine at time 0 with nothing pending. It reuses a closed
// engine's storage when there is one and sets every field either way, so
// a recycled engine runs exactly as a zero Engine does.
func New() *Engine {
	e, _ := enginePool.Get().(*Engine)
	if e == nil {
		e = new(Engine)
	}
	slab := e.pq.slab[:0]
	*e = Engine{}
	e.pq.slab = slab
	return e
}

// Close drops every pending event, clears every callback and argument the
// engine holds, and returns the engine to enginePool for a later New. Call
// it once the run's results have been read out, and not from an event
// handler; the engine must not be used after.
func (e *Engine) Close() {
	clear(e.pq.slab)
	e.pq.slab = e.pq.slab[:0]
	e.observer, e.wdDiag, e.wdErr = nil, nil, nil
	enginePool.Put(e)
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled, not-yet-executed events.
func (e *Engine) Pending() int { return e.pq.len() }

// runClosure adapts a scheduled func() to the typed event shape. A func
// value is pointer-shaped, so boxing it in the event's arg field does not
// allocate; the closure itself is the caller's (cold-path) allocation.
func runClosure(arg any, _ Time) { arg.(func())() }

// Schedule runs fn after delay. A negative delay, or one that reaches past
// MaxTime, is an error in the caller; it panics, since time cannot flow
// backwards in a DES and nothing is schedulable after MaxTime.
func (e *Engine) Schedule(delay Time, fn func()) {
	e.ScheduleCall(delay, runClosure, fn)
}

// At runs fn at absolute time t (Now <= t <= MaxTime). It is the
// closure-based shim over AtCall: convenient for setup and cold paths, one
// closure allocation per call when fn captures variables.
func (e *Engine) At(t Time, fn func()) {
	e.AtCall(t, runClosure, fn)
}

// ScheduleCall runs cb(arg, at) after delay. See Schedule and AtCall.
func (e *Engine) ScheduleCall(delay Time, cb Callback, arg any) {
	if delay < 0 || delay > MaxTime-e.now {
		e.badDelay(delay)
	}
	e.pq.push(e.now+delay, cb, arg)
}

// AtCall runs cb(arg, t) at absolute time t (Now <= t <= MaxTime); any other
// t panics. This is the hot-path entry: with a package-level cb and a
// pointer-shaped arg it allocates nothing beyond the amortized growth of
// the event queue itself. The queue checks t, so AtCall inlines.
func (e *Engine) AtCall(t Time, cb Callback, arg any) {
	e.pq.push(t, cb, arg)
}

// badDelay and badTime panic with the scheduling error; kept out of line so
// the checks cost the hot path only their compares.
func (e *Engine) badDelay(delay Time) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %d", delay))
	}
	panic(fmt.Sprintf("des: delay %d from now %v is past MaxTime (%dns)", delay, e.now, MaxTime))
}

// badTime panics for a push at t, which is before base, the engine clock,
// or past MaxTime.
func (q *eventQueue) badTime(t Time) {
	if t < q.base {
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, q.base))
	}
	panic(fmt.Sprintf("des: schedule at %dns is past MaxTime (%dns)", t, MaxTime))
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time { return e.RunUntil(MaxTime) }

// RunUntil executes events with timestamp <= deadline and returns the time
// of the last executed event (or the current time if none ran). Events
// scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) Time {
	if e.running {
		panic("des: Run called re-entrantly from an event handler")
	}
	e.running = true
	defer func() { e.running = false }()
	// One test per event covers the deadline, both watchdog limits and
	// Halt: stop folds the deadline and the time limit, Halt lowers it
	// below every event, and evStop is the event limit (0 once tripped).
	e.stop, e.halted = deadline, false
	evStop := uint64(math.MaxUint64)
	if e.wdArmed {
		if e.wdMaxTime > 0 && e.wdMaxTime < deadline {
			e.stop = e.wdMaxTime
		}
		if e.wdMaxEvents > 0 {
			evStop = e.wdMaxEvents
		}
		if e.wdErr != nil {
			evStop = 0
		}
	}
	for e.pq.len() > 0 {
		at := e.pq.peek()
		if at > e.stop || e.processed >= evStop {
			if !e.halted && at <= deadline {
				e.watchdogTrip(at) // records the trip
			}
			break
		}
		cb, arg := e.pq.pop()
		e.now = at
		e.processed++
		if e.observer != nil {
			e.observer(at)
		}
		cb(arg, at)
	}
	return e.now
}

// Halt makes a Run or RunUntil in progress return once the running event's
// handler returns, leaving later events queued: it is for a handler that
// knows the run's work is done. A later Run or RunUntil runs as usual; Step
// ignores Halt.
func (e *Engine) Halt() { e.stop, e.halted = -1, true }

// Step executes exactly one event, reporting whether one was available.
// A tripped watchdog stops Step like it stops RunUntil.
func (e *Engine) Step() bool {
	if e.pq.len() == 0 {
		return false
	}
	at := e.pq.peek()
	if e.wdArmed && e.watchdogTrip(at) {
		return false
	}
	cb, arg := e.pq.pop()
	e.now = at
	e.processed++
	if e.observer != nil {
		e.observer(at)
	}
	cb(arg, at)
	return true
}
