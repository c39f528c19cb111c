package des

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineThroughput measures raw event throughput: the simulator's
// fundamental cost unit.
func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	var fire func(depth int)
	n := 0
	fire = func(depth int) {
		n++
		if depth > 0 {
			e.Schedule(1, func() { fire(depth - 1) })
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i), func() { fire(9) })
	}
	e.Run()
	b.ReportMetric(float64(n)/float64(b.N), "events/op")
}

// tickChain is the arg threaded through the typed-throughput benchmark: one
// chain of events reusing a single preallocated struct.
type tickChain struct {
	e     *Engine
	depth int
	n     *uint64
}

func fireTick(arg any, _ Time) {
	c := arg.(*tickChain)
	*c.n++
	if c.depth > 0 {
		c.depth--
		c.e.ScheduleCall(1, fireTick, c)
	}
}

// BenchmarkEngineThroughputTyped measures the same event chains as
// BenchmarkEngineThroughput through the typed (callback, arg) scheduling
// path: no closure per event, so the loop body allocates nothing beyond the
// event queue's amortized growth.
func BenchmarkEngineThroughputTyped(b *testing.B) {
	e := New()
	var n uint64
	chains := make([]tickChain, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chains[i] = tickChain{e: e, depth: 9, n: &n}
		e.AtCall(Time(i), fireTick, &chains[i])
	}
	e.Run()
	b.ReportMetric(float64(n)/float64(b.N), "events/op")
}

func BenchmarkRNGStream(b *testing.B) {
	r := NewRNG(1, "bench")
	for i := 0; i < b.N; i++ {
		_ = r.Int63()
	}
}

// holdModel times the queue alone on the classic hold model: with live
// events resident, every iteration pops the earliest and schedules a
// replacement delay(r) after it.
func holdModel(b *testing.B, live int, delay func(r *rand.Rand) Time) {
	r := rand.New(rand.NewSource(42))
	var q eventQueue
	for i := 0; i < live; i++ {
		q.push(delay(r), nil, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := q.peek()
		q.pop()
		q.push(at+delay(r), nil, nil)
	}
}

// fabricDelays are the delays the fabric schedules for 4 KiB packets under
// DefaultParams (internal/network/link.go): zero-delay kicks, serialization
// ends (terminal, local, global), serialization plus wire latency for
// packet arrivals, and wire latency for credit returns.
var fabricDelays = [...]Time{0, 0, 239, 727, 814, 339, 827, 1314, 100, 500}

func BenchmarkQueueHoldModel(b *testing.B) {
	uniform := func(r *rand.Rand) Time { return Time(r.Intn(1000) + 1) }
	b.Run("live64", func(b *testing.B) { holdModel(b, 64, uniform) })
	b.Run("live4096", func(b *testing.B) { holdModel(b, 4096, uniform) })
	// About the pending depth of a Figure 10 cell under background load.
	b.Run("fabricmix", func(b *testing.B) {
		holdModel(b, 1024, func(r *rand.Rand) Time {
			return fabricDelays[r.Intn(len(fabricDelays))]
		})
	})
	// The same mix plus Figure 10's uniform background, whose sends are
	// offset 0-5 us into their interval: most of those land past the
	// timing wheel, so this case pays for the far tier and migration.
	b.Run("farmix", func(b *testing.B) {
		holdModel(b, 1024, func(r *rand.Rand) Time {
			if j := r.Intn(len(fabricDelays) + 1); j < len(fabricDelays) {
				return fabricDelays[j]
			}
			return Time(r.Intn(5000))
		})
	})
}
