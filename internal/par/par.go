// Package par is the construction-time worker pool the sharded machine
// builders (topology wiring, routing table resolution, fabric link creation)
// fan out over. It is the farm executor's worker pool reduced to its essence: a
// bounded set of goroutines over statically partitioned index ranges.
//
// Every user writes to disjoint, pre-sized output slots, so results are
// byte-identical at every worker count — parallelism is a wall-clock
// optimization, never an observable behavior. The pool size is a process-wide
// knob (SetWorkers, the -build-workers flag) because machine construction
// happens behind the topology.Machine seam, far from any CLI plumbing.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the configured pool size; 0 selects runtime.NumCPU().
var workers int64

// SetWorkers fixes the construction pool size. n <= 0 restores the default
// (runtime.NumCPU()). It returns the previous setting so tests can restore
// it.
func SetWorkers(n int) int {
	prev := int(atomic.LoadInt64(&workers))
	if n < 0 {
		n = 0
	}
	atomic.StoreInt64(&workers, int64(n))
	return prev
}

// Workers returns the effective pool size: the SetWorkers value, or
// runtime.NumCPU() when unset.
func Workers() int {
	if n := int(atomic.LoadInt64(&workers)); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// ForChunks partitions [0, n) into one contiguous chunk per worker and runs
// fn(lo, hi) for each chunk, concurrently when more than one worker is
// available. fn must confine its writes to state derived from its own index
// range; under that contract the result is identical at every worker count.
// n <= 0 is a no-op; with one worker (or n == 1) fn runs inline.
func ForChunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
