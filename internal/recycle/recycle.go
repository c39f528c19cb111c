// Package recycle keeps the storage that finished runs hand back — a
// fabric's links and NICs, a route chooser's tables, an engine, a graph's
// replays — for later runs to take.
package recycle

import "sync"

// Pool holds values between runs, with the Get and Put of a sync.Pool: a
// mutex-guarded list that any goroutine takes from and that no collection
// empties.
//
// A sync.Pool keeps one value per processor that only that processor can
// take back, so a sweep worker that closes a run on one processor and
// starts its next run on another finds nothing and builds afresh, and a
// value that sits idle through two collections is dropped. Either miss
// re-allocates a whole run's storage, which made a sweep's allocation
// counts swing by a third from run to run. The list has neither miss.
//
// The list needs no bound: a caller builds a value only when Get finds the
// list empty, so the list never holds more values than the most runs that
// were ever open at once, a sweep's worker count. What it holds stays
// reachable until a later Get takes it. The zero Pool is empty and ready
// to use.
type Pool struct {
	mu   sync.Mutex
	kept []any
}

// Get takes the value the last Put left, or returns nil when there is none.
func (p *Pool) Get() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.kept)
	if n == 0 {
		return nil
	}
	v := p.kept[n-1]
	p.kept[n-1] = nil
	p.kept = p.kept[:n-1]
	return v
}

// GetSized is Get for storage sized to a machine: it takes values as Get
// does until one whose size is at most four times need, and returns it, or
// nil once the pool is empty. A value more than four times too large is
// dropped, left to the collector, so the storage a large machine's runs
// leave in a pool goes once runs on a smaller machine follow, instead of
// staying reachable at its size for the life of the process. A value too
// small is returned, for the caller to grow (see Resize).
func (p *Pool) GetSized(need int, size func(any) int) any {
	for {
		v := p.Get()
		if v == nil || size(v) <= 4*need {
			return v
		}
	}
}

// Put hands v to a later Get.
func (p *Pool) Put(v any) {
	p.mu.Lock()
	p.kept = append(p.kept, v)
	p.mu.Unlock()
}

// Resize returns s with length n, reusing its array when it is large
// enough. The contents are whatever the array held; callers set every
// element they read.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
