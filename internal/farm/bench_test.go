package farm

import (
	"testing"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/trace"
)

// benchConfig is a realistically sized sweep cell (64 ranks, 256 KB
// messages, adaptive routing over random placement): heavy enough that the
// simulate-vs-replay gap reflects what a production sweep would see, small
// enough to keep the cold benchmark in the tens of milliseconds.
func benchConfig(tb testing.TB) core.Config {
	tb.Helper()
	tr, err := trace.CR(trace.CRConfig{Ranks: 64, MessageBytes: 256 * trace.KB})
	if err != nil {
		tb.Fatal(err)
	}
	return core.MiniConfig(tr, core.Cell{
		Placement: placement.RandomNode, Routing: routing.Adaptive,
	}, 1)
}

// BenchmarkFarmColdRun measures the miss path: simulate one cell and
// persist its record. This is the baseline the warm path's >=50x speedup
// target is measured against.
func BenchmarkFarmColdRun(b *testing.B) {
	cfg := benchConfig(b)
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	addr, err := Address(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// One untimed run lowers the trace and fills the run pools, so the
	// count reads the warm miss a sweep pays, whatever b.N is.
	if _, err := core.Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Put(addr, RecordOf(res)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFarmWarmHit measures the hit path: address the config, read and
// verify the entry, materialize the result. This is what every cell of a
// resumed sweep costs.
func BenchmarkFarmWarmHit(b *testing.B) {
	cfg := benchConfig(b)
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := New(s, Options{Parallel: 1}).Run([]core.Config{cfg}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, stats, err := New(s, Options{Parallel: 1}).Run([]core.Config{cfg})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Misses != 0 || res[0] == nil {
			b.Fatal("warm iteration simulated")
		}
	}
}

// The codec benchmarks store their results here, so the compiler keeps the
// calls.
var (
	recordSink  *Record
	payloadSink []byte
)

// crRecord is the record the codec benchmarks code: the quick-scale CR
// cont-min cell, 1,280 links in a 12,919-byte payload.
func crRecord(b *testing.B) *Record {
	return quickRecord(b, "CR", core.Cell{Placement: placement.Contiguous, Routing: routing.Minimal}, false)
}

// BenchmarkRecordDecode measures the decode a warm hit pays once per cell,
// after the entry's digest check.
func BenchmarkRecordDecode(b *testing.B) {
	payload := encodeRecord(crRecord(b))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := decodeRecord(payload)
		if err != nil {
			b.Fatal(err)
		}
		recordSink = rec
	}
}

// BenchmarkRecordEncode measures the encode a miss pays before Put writes
// the entry.
func BenchmarkRecordEncode(b *testing.B) {
	rec := crRecord(b)
	b.SetBytes(int64(len(encodeRecord(rec))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payloadSink = encodeRecord(rec)
	}
}

// TestFarmWarmSpeedup is the acceptance gate for the farm's reason to
// exist: replaying a banked cell must be at least 50x faster than
// simulating it. The measured gap on the bench cell, a mini-machine cell,
// is 460-760x on a shared 2-CPU host: 44-54 ms of simulation against
// 68-100 µs for the whole warm pass (address, file read, digest check,
// decode, result), so the 50x floor holds with wide margin on any machine.
func TestFarmWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	cfg := benchConfig(t)
	s := openTestStore(t)

	coldStart := time.Now()
	_, coldStats, err := New(s, Options{Parallel: 1}).Run([]core.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	cold := time.Since(coldStart)
	if coldStats.Misses != 1 {
		t.Fatalf("cold pass misses = %d, want 1", coldStats.Misses)
	}

	// Best of several warm passes: robust to one slow read (page cache
	// warm-up, a GC pause) without averaging away a real regression.
	const passes = 5
	warm := time.Duration(0)
	for i := 0; i < passes; i++ {
		start := time.Now()
		_, warmStats, err := New(s, Options{Parallel: 1}).Run([]core.Config{cfg})
		if err != nil {
			t.Fatal(err)
		}
		if warmStats.Misses != 0 {
			t.Fatalf("warm pass %d simulated", i)
		}
		if d := time.Since(start); warm == 0 || d < warm {
			warm = d
		}
	}
	if warm == 0 {
		warm = time.Nanosecond
	}
	speedup := float64(cold) / float64(warm)
	t.Logf("cold %v, warm (best of %d) %v: %.0fx", cold, passes, warm, speedup)
	if speedup < 50 {
		t.Fatalf("warm replay only %.1fx faster than cold (%v vs %v), want >= 50x", speedup, warm, cold)
	}
}
