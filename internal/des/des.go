// Package des provides a deterministic sequential discrete-event simulation
// engine and named, reproducible random-number streams.
//
// Events run in time order, and events at the same time run in the order
// they were scheduled. The queue behind that order is a monotone radix
// heap: simulated time never moves backwards, so the queue buckets events
// by the highest bit in which their time differs from the earliest pending
// time, and a pop only ever touches the lowest non-empty bucket.
//
// It is the substitute for the ROSS parallel discrete-event core that CODES
// runs on. The paper uses parallel execution only for simulator speed; a
// sequential engine is bit-reproducible and sufficient at this scale, and
// its single-thread queue is what bounds how fast results are produced.
package des

import (
	"fmt"
	"math/bits"
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

// MaxTime is the latest schedulable instant. Run drains the queue by running
// until MaxTime; it also serves callers that need an "unbounded" deadline for
// RunUntil. It is below math.MaxInt64 so that small offsets added to it do
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

// eventQueue is a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
// JACM 1990) keyed on event time. last is the time of the settled minimum
// and no queued event is earlier, because the engine never schedules into
// the past. An event at t lives in bucket bits.Len64(t ^ last): bucket 0
// holds exactly the events at last, and bucket b > 0 the times whose
// highest bit differing from last is bit b-1, so every time in a bucket
// precedes every time in a higher one. A pop takes the head of bucket 0.
// Only when bucket 0 is empty does peek settle: the lowest non-empty
// bucket's minimum becomes last and that bucket's events relink into
// strictly lower buckets. An event thus moves at most once per bucket
// over its life, where a heap sifts it through log n levels on every pop.
//
// The buckets are FIFO lists threaded through one slab of slots with a
// free list: the queue's memory is one growable slice, as a binary heap's
// would be, and steady state allocates nothing. Events with equal times
// always share a bucket and both appending and relinking preserve list
// order, so equal times pop in scheduling order; no sequence number is
// needed for the FIFO tie-break.
type eventQueue struct {
	slab []event
	free uint32     // head of the free-slot list; 0 when empty
	mask uint64     // bit b set iff bucket b is non-empty
	head [64]uint32 // bucket b's first and last slot while its mask bit is set
	tail [64]uint32
	last Time
	prev Time // last before the latest settle: the engine clock at that settle
	n    int
}

func (q *eventQueue) len() int { return q.n }

// push appends an event at time at to its bucket. at precedes last only
// when RunUntil or the watchdog stopped after a settle; the settle is then
// undone first.
func (q *eventQueue) push(at Time, cb Callback, arg any) {
	if at < q.last {
		q.unsettle()
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
	q.link(bits.Len64(uint64(at^q.last)), i, i)
	q.n++
}

// link appends the list from slot first to slot end, whose next must be 0,
// to bucket b.
func (q *eventQueue) link(b int, first, end uint32) {
	if q.mask&(1<<b) == 0 {
		q.head[b] = first
		q.mask |= 1 << b
	} else {
		q.slab[q.tail[b]].next = first
	}
	q.tail[b] = end
}

// peek settles the queue and returns the earliest pending time. The queue
// must be non-empty.
func (q *eventQueue) peek() Time {
	if q.mask&1 == 0 {
		q.settle()
	}
	return q.last
}

// pop removes the earliest event, FIFO among equal times, and returns its
// callback. A peek must have settled the queue since the last push or pop.
func (q *eventQueue) pop() (Callback, any) {
	i := q.head[0]
	ev := &q.slab[i]
	cb, arg := ev.cb, ev.arg
	if q.head[0] = ev.next; ev.next == 0 {
		q.mask &^= 1
	}
	// Drop cb/arg so their targets can be collected, and free the slot.
	ev.cb, ev.arg, ev.next = nil, nil, q.free
	q.free = i
	q.n--
	return cb, arg
}

// settle makes the minimum of the lowest non-empty bucket the new last and
// relinks that bucket's events, in list order, into the buckets below it,
// which are empty. Bucket 0 must be empty and some bucket non-empty.
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

// unsettle undoes the latest settle, which no pop has followed, so that an
// event between prev and last can be queued. That settle emptied bucket b
// = bits.Len64(prev ^ last) into the buckets below it. Bucket b has stayed
// empty, since last has bit b-1 set and no later time can first differ
// from it there, and higher buckets mean the same around prev and last.
// Splicing the lower buckets back into b therefore restores the queue
// around prev; equal times share one list, so their FIFO order survives.
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
// to use at time 0.
type Engine struct {
	pq        eventQueue
	now       Time
	processed uint64
	running   bool
	observer  func(Time)

	// Livelock watchdog (see SetWatchdog). wdArmed folds both limits into
	// one branch on the event loop's hot path.
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

// New returns a fresh engine at time 0.
func New() *Engine { return &Engine{} }

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

// Schedule runs fn after delay. A negative delay is an error in the caller;
// it panics, since time cannot flow backwards in a DES.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %d", delay))
	}
	e.AtCall(e.now+delay, runClosure, fn)
}

// At runs fn at absolute time t (>= Now). It is the closure-based shim over
// AtCall: convenient for setup and cold paths, one closure allocation per
// call when fn captures variables.
func (e *Engine) At(t Time, fn func()) {
	e.AtCall(t, runClosure, fn)
}

// ScheduleCall runs cb(arg, at) after delay. See AtCall.
func (e *Engine) ScheduleCall(delay Time, cb Callback, arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %d", delay))
	}
	e.AtCall(e.now+delay, cb, arg)
}

// AtCall runs cb(arg, t) at absolute time t (>= Now). This is the hot-path
// entry: with a package-level cb and a pointer-shaped arg it allocates
// nothing beyond the amortized growth of the event queue itself.
func (e *Engine) AtCall(t Time, cb Callback, arg any) {
	if t < e.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, e.now))
	}
	e.pq.push(t, cb, arg)
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
	for e.pq.len() > 0 {
		at := e.pq.peek()
		if at > deadline || e.wdArmed && e.watchdogTrip(at) {
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
