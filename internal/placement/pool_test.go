package placement

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"

	"dragonfly/internal/des"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

// TestPoolAllocateMatchesEmptyMachineAllocate pins allocation on an empty
// pool to the empty-machine allocator it replaced: per policy, one digest
// over every preset machine, six job sizes from one node to the whole
// machine, and five seeds, recorded from that allocator's output.
func TestPoolAllocateMatchesEmptyMachineAllocate(t *testing.T) {
	want := map[Policy]string{
		Contiguous:    "ce94d648e458acd0",
		RandomCabinet: "2665fc08a8e29e96",
		RandomChassis: "a3780ac0ecc2ad30",
		RandomRouter:  "3ed786fad78ad851",
		RandomNode:    "d4cc7bbb6cb3abc2",
	}
	for _, p := range All() {
		h := fnv.New64a()
		for _, name := range topology.PresetNames() {
			m, err := topology.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := m.Build()
			if err != nil {
				t.Fatal(err)
			}
			n := topo.NumNodes()
			for _, size := range []int{1, 7, n / 5, n / 2, n - 1, n} {
				for seed := int64(1); seed <= 5; seed++ {
					nodes, err := AllocateFrom(NewPool(topo), p, size, des.NewRNG(seed, "same"))
					if err != nil {
						t.Fatalf("%s %v size %d: %v", name, p, size, err)
					}
					for _, node := range nodes {
						_ = binary.Write(h, binary.LittleEndian, int32(node))
					}
				}
			}
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want[p] {
			t.Errorf("%v: allocation digest %s, want %s", p, got, want[p])
		}
	}
}

func TestPoolSequentialJobsDisjoint(t *testing.T) {
	topo := topotest.Theta(t)
	pool := NewPool(topo)
	rng := des.NewRNG(5, "jobs")
	var all []topology.NodeID
	sizes := []int{300, 700, 128, 1000}
	policies := []Policy{Contiguous, RandomNode, RandomCabinet, RandomRouter}
	for i, size := range sizes {
		nodes, err := AllocateFrom(pool, policies[i], size, rng)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		all = append(all, nodes...)
	}
	seen := map[topology.NodeID]bool{}
	for _, n := range all {
		if seen[n] {
			t.Fatalf("node %d allocated to two jobs", n)
		}
		seen[n] = true
	}
	if pool.Free() != topo.NumNodes()-len(all) {
		t.Fatalf("Free = %d, want %d", pool.Free(), topo.NumNodes()-len(all))
	}
}

func TestPoolContiguousSkipsTakenNodes(t *testing.T) {
	topo := topotest.Mini(t)
	pool := NewPool(topo)
	rng := des.NewRNG(1, "frag")
	// Occupy nodes 0..9 with a first job.
	first, err := AllocateFrom(pool, Contiguous, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	second, err := AllocateFrom(pool, Contiguous, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range second {
		if int(n) != 10+i {
			t.Fatalf("second contiguous job rank %d on node %d, want %d", i, n, 10+i)
		}
	}
	_ = first
}

func TestPoolReleaseReusesNodes(t *testing.T) {
	topo := topotest.Mini(t)
	pool := NewPool(topo)
	rng := des.NewRNG(2, "rel")
	nodes, _ := AllocateFrom(pool, RandomNode, 40, rng)
	if pool.Free() != 24 {
		t.Fatalf("Free = %d", pool.Free())
	}
	pool.Release(nodes)
	if pool.Free() != 64 {
		t.Fatalf("Free after release = %d", pool.Free())
	}
	again, err := AllocateFrom(pool, Contiguous, 64, rng)
	if err != nil || len(again) != 64 {
		t.Fatalf("full-machine reallocation failed: %v", err)
	}
}

func TestPoolRejectsOversizedJob(t *testing.T) {
	topo := topotest.Mini(t)
	pool := NewPool(topo)
	rng := des.NewRNG(3, "over")
	if _, err := AllocateFrom(pool, Contiguous, 60, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := AllocateFrom(pool, RandomNode, 5, rng); err == nil {
		t.Fatal("accepted job exceeding free nodes")
	}
	if _, err := AllocateFrom(pool, RandomNode, 0, rng); err == nil {
		t.Fatal("accepted empty job")
	}
}

func TestPoolReleasePanicsOnFreeNode(t *testing.T) {
	topo := topotest.Mini(t)
	pool := NewPool(topo)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pool.Release([]topology.NodeID{1})
}

// Property: any interleaving of allocations under any policies keeps jobs
// disjoint and the free count consistent.
func TestPoolInvariantProperty(t *testing.T) {
	topo := topotest.Mini(t)
	f := func(sizes []uint8, polRaw []uint8, seed int64) bool {
		pool := NewPool(topo)
		rng := des.NewRNG(seed, "prop")
		used := map[topology.NodeID]bool{}
		total := 0
		for i, sz := range sizes {
			size := 1 + int(sz)%16
			if size > pool.Free() {
				break
			}
			pol := All()[0]
			if len(polRaw) > 0 {
				pol = All()[int(polRaw[i%len(polRaw)])%len(All())]
			}
			nodes, err := AllocateFrom(pool, pol, size, rng)
			if err != nil {
				return false
			}
			for _, n := range nodes {
				if used[n] {
					return false
				}
				used[n] = true
			}
			total += size
		}
		return pool.Free() == topo.NumNodes()-total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
