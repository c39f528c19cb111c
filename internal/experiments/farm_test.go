package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"dragonfly/internal/farm"
	"dragonfly/internal/topology"
)

// renderFarmed runs one experiment through a farm store with a fresh Runner
// and returns the rendered report plus the runner's farm statistics.
func renderFarmed(t *testing.T, id string, store *farm.Store) ([]byte, farm.Stats) {
	t.Helper()
	opts := Options{Scale: ScaleQuick, Seed: 1, Parallel: 1, Farm: store}
	if id == "figr" || id == "figq" {
		opts.Machine = topology.Mini() // match the golden harness exactly
	}
	r := NewRunner(opts)
	rep, err := r.Run(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r.FarmStats()
}

// TestFarmBackedGoldenFigQ is the farm's end-to-end anchor: figq run twice
// through a farm store — cold (every cell simulated and banked) and warm
// (every cell replayed) — must both match the committed golden snapshot
// byte for byte, and the warm pass must perform zero simulations.
func TestFarmBackedGoldenFigQ(t *testing.T) {
	if updateGolden() {
		t.Skip("golden refresh in progress")
	}
	store, err := farm.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join(goldenDir(t), "figq.txt")

	cold, coldStats, warm := func() ([]byte, farm.Stats, []byte) {
		c, cs := renderFarmed(t, "figq", store)
		w, ws := renderFarmed(t, "figq", store)
		if ws.Misses != 0 {
			t.Fatalf("warm figq simulated %d cells, want 0", ws.Misses)
		}
		if ws.Hits == 0 || ws.Hits != ws.InShard {
			t.Fatalf("warm figq hits %d of %d cells, want all", ws.Hits, ws.InShard)
		}
		return c, cs, w
	}()
	if coldStats.Misses == 0 {
		t.Fatal("cold figq simulated nothing; the store cannot have been empty")
	}
	if coldStats.Uncacheable != 0 {
		t.Fatalf("cold figq left %d cells uncacheable", coldStats.Uncacheable)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cold and warm figq reports differ")
	}
	if err := compareWithGolden(golden, cold); err != nil {
		t.Errorf("farm-backed cold run diverges from the committed golden: %v", err)
	}
	if err := compareWithGolden(golden, warm); err != nil {
		t.Errorf("farm-backed warm run diverges from the committed golden: %v", err)
	}
}

// TestFarmBackedGoldenFigA proves the collective-workload sweep runs warm
// through the farm: graph-carrying configs must be cacheable (the encoder's
// graph.* lines), bank on the cold pass, and replay every cell on the warm
// pass while staying byte-identical to the committed golden.
func TestFarmBackedGoldenFigA(t *testing.T) {
	if updateGolden() {
		t.Skip("golden refresh in progress")
	}
	store, err := farm.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, coldStats := renderFarmed(t, "figa", store)
	if coldStats.Misses == 0 {
		t.Fatal("cold figa simulated nothing; the store cannot have been empty")
	}
	if coldStats.Uncacheable != 0 {
		t.Fatalf("cold figa left %d graph cells uncacheable", coldStats.Uncacheable)
	}
	warm, warmStats := renderFarmed(t, "figa", store)
	if warmStats.Misses != 0 {
		t.Fatalf("warm figa simulated %d cells, want 0", warmStats.Misses)
	}
	if warmStats.Hits != coldStats.Misses {
		t.Fatalf("warm figa hit %d cells; cold banked %d", warmStats.Hits, coldStats.Misses)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cold and warm figa reports differ")
	}
	if err := compareWithGolden(filepath.Join(goldenDir(t), "figa.txt"), cold); err != nil {
		t.Errorf("farm-backed figa diverges from the committed golden: %v", err)
	}
}

// TestFarmBackedGoldenFig3 covers the paper's headline figure — its
// 30-cell grid resolved in one request and rendered from the returned
// results — against its golden snapshot, cold then warm.
func TestFarmBackedGoldenFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates fig3 twice")
	}
	if updateGolden() {
		t.Skip("golden refresh in progress")
	}
	store, err := farm.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, coldStats := renderFarmed(t, "fig3", store)
	if coldStats.Misses == 0 || coldStats.Uncacheable != 0 {
		t.Fatalf("cold fig3 stats %+v: want only misses", coldStats)
	}
	warm, warmStats := renderFarmed(t, "fig3", store)
	if warmStats.Misses != 0 {
		t.Fatalf("warm fig3 simulated %d cells, want 0", warmStats.Misses)
	}
	if warmStats.Hits != coldStats.Misses {
		t.Fatalf("warm fig3 hit %d cells; cold banked %d", warmStats.Hits, coldStats.Misses)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cold and warm fig3 reports differ")
	}
	if err := compareWithGolden(filepath.Join(goldenDir(t), "fig3.txt"), cold); err != nil {
		t.Errorf("farm-backed fig3 diverges from the committed golden: %v", err)
	}
}

// TestExperimentsHonorAudit runs every farm-backed extension sweep under
// -audit, each against its own store, and requires every banked record to
// carry the auditor's summary: no sweep may build cells around the
// runner's options.
func TestExperimentsHonorAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five extension sweeps under the auditor")
	}
	for _, id := range []string{"xmap", "figr", "figq", "figa", "figf"} {
		dir := t.TempDir()
		store, err := farm.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(Options{Scale: ScaleQuick, Seed: 1, Parallel: 2, Audit: true, Farm: store})
		if _, err := r.Run(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		objects, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*"))
		if err != nil {
			t.Fatal(err)
		}
		banked, unaudited := 0, 0
		for _, path := range objects {
			addr := filepath.Base(path)
			if strings.HasPrefix(addr, ".") {
				continue
			}
			rec, err := store.Get(addr)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			banked++
			if rec.Audit == nil {
				unaudited++
			}
		}
		if st := r.FarmStats(); banked == 0 || banked != st.Misses {
			t.Fatalf("%s: %d records banked, %d cells simulated", id, banked, st.Misses)
		}
		if unaudited > 0 {
			t.Errorf("%s: %d of %d banked records carry no audit summary", id, unaudited, banked)
		}
	}
}
