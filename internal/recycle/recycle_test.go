package recycle

import (
	"runtime"
	"sync"
	"testing"
)

// TestKeptValuesSurviveCollections: every value put comes back from Get
// after collections that would empty a sync.Pool, whichever goroutine
// asks.
func TestKeptValuesSurviveCollections(t *testing.T) {
	var p Pool
	const n = 8
	put := make(map[*int]bool)
	for i := 0; i < n; i++ {
		v := new(int)
		put[v] = true
		p.Put(v)
	}
	runtime.GC()
	runtime.GC()
	got := make(chan any, n)
	for i := 0; i < n; i++ {
		go func() { got <- p.Get() }()
	}
	for i := 0; i < n; i++ {
		v, _ := (<-got).(*int)
		if !put[v] {
			t.Fatalf("Get %d returned %v, not a value Put left", i, v)
		}
		delete(put, v)
	}
	if v := p.Get(); v != nil {
		t.Fatalf("an empty pool returned %v", v)
	}
}

// TestPoolHoldsAtMostPeakInUse: workers that take a value (building one
// when the pool is empty) and put it back never make the pool build or
// hold more values than there are workers, however many rounds they run.
func TestPoolHoldsAtMostPeakInUse(t *testing.T) {
	var p Pool
	const workers, rounds = 8, 500
	var mu sync.Mutex
	built := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v := p.Get()
				if v == nil {
					mu.Lock()
					built++
					mu.Unlock()
					v = new(int)
				}
				runtime.Gosched()
				p.Put(v)
			}
		}()
	}
	wg.Wait()
	if built > workers {
		t.Fatalf("built %d values for %d workers", built, workers)
	}
	if len(p.kept) != built {
		t.Fatalf("pool holds %d values, want the %d built", len(p.kept), built)
	}
}

// TestGetSizedDropsOversized: GetSized drops the values more than four
// times too large that it finds on the way, returns the first that is not,
// smaller ones included, and returns nil once the pool is empty.
func TestGetSizedDropsOversized(t *testing.T) {
	var p Pool
	for _, n := range []int{100, 10, 1000} {
		p.Put(n)
	}
	size := func(v any) int { return v.(int) }
	if v := p.GetSized(50, size); v != 10 {
		t.Fatalf("GetSized(50) = %v, want 10 after dropping 1000", v)
	}
	if len(p.kept) != 1 {
		t.Fatalf("pool holds %d values, want 1", len(p.kept))
	}
	if v := p.GetSized(10, size); v != nil {
		t.Fatalf("GetSized(10) = %v, want nil after dropping 100", v)
	}
	if len(p.kept) != 0 {
		t.Fatalf("pool holds %d values, want none", len(p.kept))
	}
}
