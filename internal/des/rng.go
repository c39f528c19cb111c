package des

import (
	"math"
	"math/rand"

	"dragonfly/internal/recycle"
)

// RNG is a deterministic random stream. Every stochastic decision in the
// simulator (placement draws, adaptive tie-breaks, Valiant intermediates,
// background destinations, trace fluctuations) pulls from a named stream so
// that adding randomness to one subsystem never perturbs another: streams
// with distinct names are statistically independent, and a (seed, name) pair
// always yields the same sequence.
//
// A run's streams live as long as the run: its front end derives them all
// from one root (Stream) and releases the root when the run closes, which
// hands every stream derived from it back to a pool for a later NewRNG to
// reseed. Nothing may draw from a released stream.
type RNG struct {
	*rand.Rand
	// child is the stream last derived from this one, and sibling the one
	// its parent derived before it: the lists Release walks.
	child, sibling *RNG
	fresh          bool // built by FreshRNG: derives fresh streams, never pooled
	free           bool // released and waiting in streamPool
}

// streamPool holds released streams, whose 4.9 KB generator state a later
// NewRNG reseeds in place.
var streamPool recycle.Pool // *RNG

// seedOf mixes a stream name into a root seed: the name's 64-bit FNV-1a
// hash XOR the seed times the golden-ratio constant.
func seedOf(seed int64, name string) int64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
		golden = 0x9E3779B97F4A7C15
	)
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return int64(h ^ (uint64(seed) * golden))
}

// NewRNG derives a stream from a root seed and a stream name. It reseeds a
// released stream when the pool holds one: Seed leaves a generator in
// exactly the state rand.New(rand.NewSource(seed)) builds, so a recycled
// stream draws what a fresh one would.
func NewRNG(seed int64, name string) *RNG {
	if r, _ := streamPool.Get().(*RNG); r != nil {
		r.free = false
		r.Seed(seedOf(seed, name))
		return r
	}
	return &RNG{Rand: rand.New(rand.NewSource(seedOf(seed, name)))}
}

// FreshRNG is NewRNG on new memory, and so is every stream derived from it;
// Release leaves them to the collector. It is the allocate-fresh reference
// recycled streams are checked against (network.Params.NoPacketPool).
func FreshRNG(seed int64, name string) *RNG {
	return &RNG{Rand: rand.New(rand.NewSource(seedOf(seed, name))), fresh: true}
}

// Stream derives a child stream; the child is independent of the parent's
// consumption position. Releasing the parent releases the child.
func (r *RNG) Stream(name string) *RNG {
	if r.fresh {
		return FreshRNG(r.Int63(), name)
	}
	kid := NewRNG(r.Int63(), name)
	kid.sibling, r.child = r.child, kid
	return kid
}

// Release hands r and every stream derived from it to the pool NewRNG
// reseeds from. Call it once, on a run's root, after the run has closed:
// none of those streams may be drawn from after. Releasing a FreshRNG
// stream does nothing.
func (r *RNG) Release() {
	if r.fresh {
		return
	}
	if r.free {
		panic("des: stream released twice")
	}
	for kid := r.child; kid != nil; {
		next := kid.sibling
		kid.Release()
		kid = next
	}
	r.child, r.sibling, r.free = nil, nil, true
	streamPool.Put(r)
}

// IntnRange returns a uniform integer in [lo, hi] inclusive.
func (r *RNG) IntnRange(lo, hi int) int {
	if hi < lo {
		panic("des: IntnRange hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Perm returns a random permutation of [0, n).
// (Promoted from math/rand; listed here for documentation discoverability.)

// LogUniform returns a value drawn log-uniformly from [lo, hi].
func (r *RNG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("des: LogUniform requires 0 < lo <= hi")
	}
	if lo == hi {
		return lo
	}
	// ln-space uniform draw
	u := r.Float64()
	return lo * math.Pow(hi/lo, u)
}
