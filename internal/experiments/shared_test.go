package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

// TestSessionsShareMachines runs every quick paper figure through a runner
// whose four farm workers run their sessions concurrently on the one
// shared quick machine, and requires each report to match its golden,
// which runs on a machine of their own produced. Then the shared machine
// must still be the one cached before the figures and answer every layout
// and wiring query as a fresh build does: no session wrote to it. CI runs
// it under the race detector with -count=10.
func TestSessionsShareMachines(t *testing.T) {
	if updateGolden() {
		t.Skip("goldens are being rewritten")
	}
	shared, err := topology.Shared(topology.Quick())
	if err != nil {
		t.Fatal(err)
	}
	// A data directory adds the tables the goldens carry for the CSVs.
	r := NewRunner(Options{Scale: ScaleQuick, Seed: 1, Parallel: 4, DataDir: t.TempDir()})
	for _, id := range IDs() {
		rep, err := r.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := rep.WriteText(&got); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(goldenDir(t), id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s on shared machines differs from its golden", id)
		}
	}
	if again, err := topology.Shared(topology.Quick()); err != nil || again != shared {
		t.Fatalf("the figures rebuilt the shared quick machine (%v)", err)
	}
	fresh := topology.BuildMachine(topology.Quick())
	if topotest.LayoutDigest(t, shared) != topotest.LayoutDigest(t, fresh) {
		t.Error("the shared quick machine answers a layout or wiring query unlike a fresh build")
	}
}
