package des

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineZeroValueUsable(t *testing.T) {
	var e Engine
	ran := false
	e.Schedule(5, func() { ran = true })
	if got := e.Run(); got != 5 {
		t.Fatalf("Run returned %v, want 5", got)
	}
	if !ran {
		t.Fatal("event did not run")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(42, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order[%d] = %d, want %d (insertion order)", i, v, i)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var times []Time
	var chain func(depth int)
	chain = func(depth int) {
		times = append(times, e.Now())
		if depth < 5 {
			e.Schedule(7, func() { chain(depth + 1) })
		}
	}
	e.Schedule(0, func() { chain(0) })
	end := e.Run()
	if end != 35 {
		t.Fatalf("end time %v, want 35", end)
	}
	for i, tm := range times {
		if tm != Time(i*7) {
			t.Fatalf("times[%d] = %v, want %d", i, tm, i*7)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	var hits []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func() { hits = append(hits, d) })
	}
	e.RunUntil(25)
	if len(hits) != 2 {
		t.Fatalf("executed %d events by t=25, want 2", len(hits))
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(hits) != 4 {
		t.Fatalf("executed %d events total, want 4", len(hits))
	}
}

func TestEngineStep(t *testing.T) {
	e := New()
	n := 0
	e.Schedule(1, func() { n++ })
	e.Schedule(2, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestEngineProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 17; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 17 {
		t.Fatalf("Processed = %d, want 17", e.Processed())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestAtBeforeNowPanics(t *testing.T) {
	e := New()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for At in the past")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

// Property: for any batch of delays, events execute in nondecreasing time
// order and the engine clock matches each event's scheduled time.
func TestEngineMonotonicClockProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var seen []Time
		for _, d := range delays {
			d := Time(d)
			e.Schedule(d, func() {
				seen = append(seen, e.Now())
			})
		}
		e.Run()
		if len(seen) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] }) {
			return false
		}
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if seen[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxTime(t *testing.T) {
	if MaxTime != Time(1<<62-1) {
		t.Fatalf("MaxTime = %d", int64(MaxTime))
	}
	e := New()
	hit := false
	e.At(MaxTime, func() { hit = true })
	if got := e.Run(); got != MaxTime {
		t.Fatalf("Run returned %v, want MaxTime", got)
	}
	if !hit {
		t.Fatal("event at MaxTime did not run under Run()")
	}
}

// panicText runs fn and returns what it panicked with, "" if it returned.
func panicText(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestAtPastMaxTimePanics: an instant past MaxTime is rejected where it is
// scheduled. Accepted, it would sit in the queue beyond Run's deadline and
// never run, although Run promises to drain the queue.
func TestAtPastMaxTimePanics(t *testing.T) {
	e := New()
	for name, fn := range map[string]func(){
		"At":     func() { e.At(MaxTime+1, func() {}) },
		"AtCall": func() { e.AtCall(MaxTime+1, fireTick, nil) },
	} {
		if msg := panicText(fn); !strings.Contains(msg, "MaxTime") {
			t.Errorf("%s(MaxTime+1) panicked with %q, want a panic naming MaxTime", name, msg)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events queued past MaxTime", e.Pending())
	}
	if got := e.Run(); got != 0 {
		t.Fatalf("Run = %v on an empty engine", got)
	}
	// Near the end of time the wheel's window reaches past MaxTime.
	e.At(MaxTime-10, func() {})
	e.Run()
	if msg := panicText(func() { e.AtCall(MaxTime+1, fireTick, nil) }); !strings.Contains(msg, "MaxTime") {
		t.Errorf("AtCall(MaxTime+1) at %v panicked with %q, want a panic naming MaxTime", e.Now(), msg)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events queued past MaxTime", e.Pending())
	}
}

// TestScheduleOverflowPanics: a delay whose end lies past MaxTime is
// rejected with a panic naming MaxTime, including delays for which now +
// delay would overflow int64 and read as a time before now. A delay ending
// exactly at MaxTime is accepted and runs.
func TestScheduleOverflowPanics(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	e.Run()
	for name, fn := range map[string]func(){
		"Schedule overflow":     func() { e.Schedule(math.MaxInt64-3, func() {}) },
		"ScheduleCall overflow": func() { e.ScheduleCall(math.MaxInt64-3, fireTick, nil) },
		"Schedule past":         func() { e.Schedule(MaxTime-4, func() {}) },
		"ScheduleCall past":     func() { e.ScheduleCall(MaxTime-4, fireTick, nil) },
	} {
		if msg := panicText(fn); !strings.Contains(msg, "MaxTime") {
			t.Errorf("%s panicked with %q, want a panic naming MaxTime", name, msg)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events queued past MaxTime", e.Pending())
	}
	hit := false
	e.Schedule(MaxTime-5, func() { hit = true })
	if got := e.Run(); got != MaxTime || !hit {
		t.Fatalf("delay to exactly MaxTime: Run = %v, ran = %v", got, hit)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeMilliseconds(t *testing.T) {
	if got := (1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Fatalf("Milliseconds = %v, want 1.5", got)
	}
}

func TestHeavyInterleavedLoad(t *testing.T) {
	// Stress the heap with randomized scheduling from inside handlers.
	e := New()
	r := rand.New(rand.NewSource(1))
	count := 0
	var spawn func(budget int)
	spawn = func(budget int) {
		count++
		if budget <= 0 {
			return
		}
		kids := r.Intn(3)
		for i := 0; i < kids; i++ {
			e.Schedule(Time(r.Intn(100)+1), func() { spawn(budget - 1) })
		}
	}
	for i := 0; i < 50; i++ {
		e.Schedule(Time(r.Intn(1000)), func() { spawn(6) })
	}
	e.Run()
	if count < 50 {
		t.Fatalf("ran %d events, want >= 50", count)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Run", e.Pending())
	}
}

// TestScheduleBeforeNextAfterRunUntil: RunUntil stops at its deadline with
// a later event still queued; events then scheduled between the clock and
// that event, two of them at one instant, run first and in FIFO order.
func TestScheduleBeforeNextAfterRunUntil(t *testing.T) {
	e := New()
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	e.At(100, note("next"))
	if got := e.RunUntil(50); got != 0 || e.Pending() != 1 {
		t.Fatalf("RunUntil(50) = %v with %d pending, want 0 with 1", got, e.Pending())
	}
	e.At(0, note("at-now"))
	e.At(10, note("first"))
	if got := e.RunUntil(50); got != 10 || e.Pending() != 1 {
		t.Fatalf("RunUntil(50) = %v with %d pending, want 10 with 1", got, e.Pending())
	}
	e.At(10, note("zero-delay"))
	e.At(60, note("tie-1"))
	e.At(60, note("tie-2"))
	e.At(99, note("last"))
	if got := e.RunUntil(60); got != 60 || e.Pending() != 2 {
		t.Fatalf("RunUntil(60) = %v with %d pending, want 60 with 2", got, e.Pending())
	}
	e.At(70, note("late"))
	e.At(70, note("late-tie"))
	e.Run()
	want := []string{"at-now", "first", "zero-delay", "tie-1", "tie-2", "late", "late-tie", "last", "next"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestPendingExactAfterEveryStep: Pending always equals scheduled minus
// executed, while handlers schedule zero-delay, same-time and distant
// children.
func TestPendingExactAfterEveryStep(t *testing.T) {
	e := New()
	r := rand.New(rand.NewSource(3))
	scheduled := 0
	var spawn func()
	spawn = func() {
		for k := r.Intn(4); k > 0 && scheduled < 5000; k-- {
			scheduled++
			e.Schedule([]Time{0, 0, 7, 1 << 20}[r.Intn(4)], spawn)
		}
	}
	for i := 0; i < 20; i++ {
		scheduled++
		e.At(Time(r.Intn(50)), spawn)
	}
	for steps := 1; e.Step(); steps++ {
		if e.Pending() != scheduled-steps || e.Processed() != uint64(steps) {
			t.Fatalf("after step %d: Pending = %d, Processed = %d; want %d, %d",
				steps, e.Pending(), e.Processed(), scheduled-steps, steps)
		}
	}
	if e.Pending() != 0 || e.Processed() != uint64(scheduled) {
		t.Fatalf("drained with Pending = %d, Processed = %d of %d", e.Pending(), e.Processed(), scheduled)
	}
}

// TestWatchdogTripKeepsQueue: a trip on the time budget stops before the
// offending event; the queue keeps every event, later Step and Run calls
// run none, and an event scheduled before the offending one still counts.
func TestWatchdogTripKeepsQueue(t *testing.T) {
	e := New()
	e.SetWatchdog(0, 25, nil)
	for _, at := range []Time{10, 20, 30, 30, 40} {
		e.At(at, func() {})
	}
	e.Run()
	var w *WatchdogError
	if !errors.As(e.Tripped(), &w) {
		t.Fatalf("Tripped() = %v, want *WatchdogError", e.Tripped())
	}
	if e.Now() != 20 || e.Pending() != 3 || w.Pending != 3 {
		t.Fatalf("tripped at %v with %d pending (report %d), want 20 with 3", e.Now(), e.Pending(), w.Pending)
	}
	for i := 0; i < 3; i++ {
		if e.Step() {
			t.Fatal("Step executed an event on a tripped engine")
		}
	}
	e.At(22, func() {})
	e.Run()
	if e.Step() || e.Pending() != 4 || e.Processed() != 2 {
		t.Fatalf("after trip: Pending = %d, Processed = %d; want 4, 2", e.Pending(), e.Processed())
	}
}

// TestHaltStopsRun: Halt from a handler makes RunUntil return once that
// handler is done, with later events, those at the same instant included,
// still queued; the next Run runs them, and Step ignores Halt.
func TestHaltStopsRun(t *testing.T) {
	e := New()
	var ran []int
	for i := 0; i < 5; i++ {
		e.At(Time(10*(i/2)), func() {
			ran = append(ran, i)
			if i == 2 || i == 3 {
				e.Halt()
			}
		})
	}
	if got := e.RunUntil(MaxTime); got != 10 || len(ran) != 3 || e.Pending() != 2 {
		t.Fatalf("halted run: RunUntil = %v after events %v, %d pending; want 10 after [0 1 2], 2 pending", got, ran, e.Pending())
	}
	if !e.Step() || len(ran) != 4 || !e.Step() || len(ran) != 5 {
		t.Fatalf("Step after a halt ran %v, want every event", ran)
	}
	e.At(30, func() { ran = append(ran, 5) })
	e.At(40, func() { ran = append(ran, 6) })
	if got := e.Run(); got != 40 || len(ran) != 7 {
		t.Fatalf("Run after a halt = %v having run %v, want 40 having run all seven", got, ran)
	}
}
