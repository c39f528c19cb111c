package dragonfly

import (
	"testing"
)

// TestPublicAPIQuickstart exercises the documented quick-start flow on the
// small machine.
func TestPublicAPIQuickstart(t *testing.T) {
	tr, err := CRTrace(CRConfig{Ranks: 32, MessageBytes: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(MiniConfig(tr, Cell{Placement: RandomNode, Routing: Minimal}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.MaxCommTime() <= 0 {
		t.Fatalf("quickstart run failed: completed=%v max=%v", res.Completed, res.MaxCommTime())
	}
}

func TestPublicAPICatalogs(t *testing.T) {
	if got := len(AllCells()); got != 10 {
		t.Errorf("AllCells = %d, want 10", got)
	}
	if got := len(ExtremeCells()); got != 4 {
		t.Errorf("ExtremeCells = %d, want 4", got)
	}
	if got := len(AllPlacements()); got != 5 {
		t.Errorf("AllPlacements = %d, want 5", got)
	}
	if got := len(ExperimentIDs()); got != 11 {
		t.Errorf("ExperimentIDs = %d, want 11", got)
	}
	top, err := NewTopology(Theta())
	if err != nil {
		t.Fatal(err)
	}
	if top.NumNodes() != 3456 {
		t.Errorf("Theta nodes = %d", top.NumNodes())
	}
	if _, err := ParsePlacement("rand"); err != nil {
		t.Error(err)
	}
	if _, err := ParseRouting("adp"); err != nil {
		t.Error(err)
	}
}

func TestPublicAPIExperimentRunner(t *testing.T) {
	r := NewRunner(ExperimentOptions{Scale: ScaleQuick, Seed: 2})
	rep, err := r.Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table1" {
		t.Fatalf("report id = %q", rep.ID)
	}
}

func TestPublicAPIBackgroundRun(t *testing.T) {
	tr, err := AMGTrace(AMGConfig{X: 3, Y: 3, Z: 3, Cycles: 1, Levels: 2, PeakBytes: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MiniConfig(tr, Cell{Placement: Contiguous, Routing: Adaptive}, 3)
	cfg.Background = &BackgroundConfig{
		Kind:     UniformRandom,
		MsgBytes: 16 * 1024,
		Interval: 10 * Microsecond,
	}
	cfg.MaxSimTime = Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("background run did not complete")
	}
	if res.BackgroundPeakLoad <= 0 {
		t.Fatal("no background peak load recorded")
	}
}
