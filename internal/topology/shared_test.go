package topology

import (
	"sync"
	"testing"
)

// TestSharedBuildsEachShapeOnce: every caller asking for one CanonicalSpec,
// from any goroutine and through any copy of the description, gets the one
// built machine; another shape gets its own; a description that does not
// build is refused every time and not kept.
func TestSharedBuildsEachShapeOnce(t *testing.T) {
	want, err := Shared(Quick())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := Shared(Quick())
				if err != nil || got != want {
					t.Errorf("Shared(Quick()) = %p, %v; want the machine built first, %p", got, err, want)
					return
				}
				if _, err := Shared(PlusMini()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if other, err := Shared(Mini()); err != nil || other == want {
		t.Errorf("Shared(Mini()) = %p, %v; want a machine of its own", other, err)
	}
	bad := Config{Groups: 3, Rows: 2, Cols: 2, NodesPerRouter: 1}
	for i := 0; i < 2; i++ {
		if ic, err := Shared(bad); err == nil {
			t.Fatalf("Shared built %v from a machine with no global ports", ic.Describe())
		}
	}
}

// TestSharedKeepsFewShapes: a process that walks more shapes than the
// cache holds keeps only the most recently used, and a shape asked for
// again after eviction is built anew.
func TestSharedKeepsFewShapes(t *testing.T) {
	var walk []Machine
	for g := 2; len(walk) < sharedShapes+2; g++ {
		walk = append(walk, Config{Groups: g, Rows: 2, Cols: 2, NodesPerRouter: 1, GlobalPortsPerRouter: 2, ChassisPerCabinet: 1})
	}
	first, err := Shared(walk[0])
	if err != nil {
		t.Fatal(err)
	}
	var last Interconnect
	for _, m := range walk[1:] {
		if last, err = Shared(m); err != nil {
			t.Fatal(err)
		}
	}
	shared.mu.Lock()
	kept := len(shared.built)
	shared.mu.Unlock()
	if kept > sharedShapes {
		t.Errorf("cache holds %d shapes, want at most %d", kept, sharedShapes)
	}
	if again, _ := Shared(walk[len(walk)-1]); again != last {
		t.Error("the most recently used shape was rebuilt")
	}
	if again, _ := Shared(walk[0]); again == first {
		t.Errorf("the first of %d shapes is still cached", len(walk))
	}
}
