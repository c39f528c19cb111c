package workload

import (
	"reflect"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
)

// sentMsg is one Send a replay made: when, between which nodes, how much.
type sentMsg struct {
	at       des.Time
	src, dst topology.NodeID
	bytes    int64
}

// recordingFabric is the loopback stub of the replay benchmarks, recording
// every send.
type recordingFabric struct {
	benchFabric
	sends []sentMsg
}

func newRecordingFabric(nodes int) *recordingFabric {
	return &recordingFabric{benchFabric: benchFabric{eng: des.New(), nodes: nodes}}
}

func (f *recordingFabric) Send(src, dst topology.NodeID, bytes int64, onInjected, onDelivered func(des.Time)) {
	f.sends = append(f.sends, sentMsg{at: f.eng.Now(), src: src, dst: dst, bytes: bytes})
	f.benchFabric.Send(src, dst, bytes, onInjected, onDelivered)
}

// TestRecycledReplayMatchesFresh: NewReplay takes back a replay of the same
// graph that an earlier job closed part-way through its run on another node
// map, message scale, start time and completion callback, and runs this
// job exactly as a replay built fresh does — the same sends at the same
// times, the same comm times, done, and only this job's callback fired.
func TestRecycledReplayMatchesFresh(t *testing.T) {
	g, err := trace.MoEAllToAll(trace.MoEAllToAllConfig{Ranks: 24, Bytes: 32 * trace.KB, Rounds: 2, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumRanks()
	shuffled := make([]topology.NodeID, n)
	for i := range shuffled {
		shuffled[i] = topology.NodeID(2*n - 1 - 5*i%n)
	}
	job := func(onComplete func(des.Time)) Job {
		return Job{Name: "moe", Graph: g, Nodes: shuffled, MsgScale: 2.5, Start: 700, OnComplete: onComplete}
	}

	// The reference is built fresh: the graph's pool is still empty.
	refFab := newRecordingFabric(2 * n)
	refDone := des.Time(-1)
	ref, err := NewReplay(refFab, job(func(at des.Time) { refDone = at }))
	if err != nil {
		t.Fatal(err)
	}
	ref.Start()
	refFab.eng.Run()

	earlierDone := 0
	earlierFab := newRecordingFabric(2 * n)
	earlier, err := NewReplay(earlierFab, Job{
		Name: "moe", Graph: g, Nodes: contiguousNodes(n),
		OnComplete: func(des.Time) { earlierDone++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	earlier.Start()
	earlierFab.eng.RunUntil(3 * des.Microsecond)
	if earlier.Done() || earlier.RanksDone() > 0 || len(earlierFab.sends) == 0 || earlierFab.eng.Pending() == 0 {
		t.Fatalf("earlier job cut at %v with %d ranks done, %d sends and %d pending events; want it part-way",
			earlierFab.eng.Now(), earlier.RanksDone(), len(earlierFab.sends), earlierFab.eng.Pending())
	}
	earlier.Close()
	fab := newRecordingFabric(2 * n)
	gotDone := des.Time(-1)
	rep, err := NewReplay(fab, job(func(at des.Time) { gotDone = at }))
	if err != nil {
		t.Fatal(err)
	}
	if rep != earlier {
		t.Fatal("NewReplay did not take back the closed replay of its graph")
	}
	rep.Start()
	fab.eng.Run()

	if !rep.Done() || !ref.Done() {
		t.Fatalf("recycled replay done %v, fresh %v; want both done", rep.Done(), ref.Done())
	}
	if !reflect.DeepEqual(rep.CommTimes(), ref.CommTimes()) {
		t.Errorf("comm times differ:\nrecycled %v\nfresh    %v", rep.CommTimes(), ref.CommTimes())
	}
	if !reflect.DeepEqual(fab.sends, refFab.sends) {
		t.Errorf("recycled replay made %d sends, fresh %d, or they differ", len(fab.sends), len(refFab.sends))
	}
	if gotDone != refDone || refDone < 0 {
		t.Errorf("job completed at %v, fresh at %v", gotDone, refDone)
	}
	if earlierDone != 0 {
		t.Errorf("the earlier job's completion callback fired %d times", earlierDone)
	}
}
