package des

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestRNGDeterministicBySeedAndName(t *testing.T) {
	a := NewRNG(42, "placement")
	b := NewRNG(42, "placement")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, name) produced different sequences")
		}
	}
}

func TestRNGNameSeparatesStreams(t *testing.T) {
	a := NewRNG(42, "placement")
	b := NewRNG(42, "routing")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names collided %d/100 times", same)
	}
}

func TestRNGSeedSeparatesStreams(t *testing.T) {
	a := NewRNG(1, "x")
	b := NewRNG(2, "x")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds collided %d/100 times", same)
	}
}

func TestRNGChildStreams(t *testing.T) {
	a := NewRNG(7, "root").Stream("child")
	b := NewRNG(7, "root").Stream("child")
	for i := 0; i < 50; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("derived child streams differ for same lineage")
		}
	}
}

func TestIntnRangeBounds(t *testing.T) {
	r := NewRNG(3, "bounds")
	for i := 0; i < 1000; i++ {
		v := r.IntnRange(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntnRange(5,9) = %d out of bounds", v)
		}
	}
	if got := r.IntnRange(4, 4); got != 4 {
		t.Fatalf("degenerate range returned %d, want 4", got)
	}
}

func TestIntnRangePanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(0, "p").IntnRange(2, 1)
}

func TestLogUniformBoundsProperty(t *testing.T) {
	r := NewRNG(11, "logu")
	f := func(loSeed, span uint8) bool {
		lo := 1.0 + float64(loSeed)
		hi := lo * (1.0 + float64(span))
		v := r.LogUniform(lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLogUniformDegenerate(t *testing.T) {
	r := NewRNG(11, "logu")
	if got := r.LogUniform(3, 3); got != 3 {
		t.Fatalf("LogUniform(3,3) = %v, want 3", got)
	}
}

func TestLogUniformPanicsOnBadRange(t *testing.T) {
	r := NewRNG(0, "p")
	for _, c := range []struct{ lo, hi float64 }{{0, 1}, {-1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LogUniform(%v,%v): expected panic", c.lo, c.hi)
				}
			}()
			r.LogUniform(c.lo, c.hi)
		}()
	}
}

// referenceRNG builds the stream of (seed, name) on its own: the name's
// FNV-1a hash from hash/fnv, mixed into the seed, seeding a new generator.
func referenceRNG(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return rand.New(rand.NewSource(int64(h.Sum64() ^ (uint64(seed) * 0x9E3779B97F4A7C15))))
}

// TestRecycledStreamMatchesFresh: a stream reseeded from the pool draws the
// same first 10,000 values as a new generator of its (seed, name), and so
// does a stream derived from it. Four goroutines run rounds of every pair
// at once, each round releasing its streams with their generators part
// drawn, so later rounds take back streams another goroutine dirtied. CI
// runs it under the race detector with -count=10.
func TestRecycledStreamMatchesFresh(t *testing.T) {
	pairs := []struct {
		seed int64
		name string
	}{{1, "core"}, {7, "core/multi"}, {-3, "sched"}, {1 << 40, ""}, {42, "fabric"}}
	const draws = 10_000
	same := func(got *RNG, want *rand.Rand) bool {
		for i := 0; i < draws; i++ {
			if got.Int63() != want.Int63() {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range pairs {
					p := pairs[(w+i)%len(pairs)]
					root, ref := NewRNG(p.seed, p.name), referenceRNG(p.seed, p.name)
					kid := root.Stream("child")
					refKid := referenceRNG(ref.Int63(), "child")
					if !same(root, ref) || !same(kid, refKid) {
						t.Errorf("worker %d round %d: stream (%d, %q) or its child drew other values than a new generator",
							w, round, p.seed, p.name)
						return
					}
					root.Release()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFreshStreamsStayOutOfThePool: a FreshRNG stream and its children
// derive fresh streams and ignore Release, while a pooled stream released
// twice panics.
func TestFreshStreamsStayOutOfThePool(t *testing.T) {
	fresh := FreshRNG(5, "ref")
	kid := fresh.Stream("child")
	if !kid.fresh {
		t.Fatal("a FreshRNG stream derived a pooled child")
	}
	fresh.Release()
	if fresh.free || kid.free {
		t.Fatal("Release pooled a FreshRNG stream")
	}
	r := NewRNG(5, "pooled")
	r.Stream("child")
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release did not panic")
		}
	}()
	r.Release()
}
