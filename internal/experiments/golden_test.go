package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dragonfly/internal/topology"
)

// The golden-run regression suite: committed byte-exact snapshots of every
// paper artifact and every extension at small scale (rendered text and
// every CSV) anchor the model.
// Any refactor that perturbs a simulated result — event ordering, RNG
// consumption, float formatting, flow-control behavior — fails these tests
// loudly instead of silently drifting the paper's figures.
//
// To refresh after an intentional model change:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGolden
//
// and commit the rewritten files under testdata/golden with a justification.

// goldenIDs are the anchored experiments: table1 and table2 the
// configuration catalog and the analytic background loads, fig2 the trace
// generators alone, fig3 the full placement x routing simulation grid,
// fig4-fig6 the hop and channel views of that grid, fig7 the message-size
// sweep, fig8-fig10 the background-interference path (uniform and bursty),
// and xmap the task-mapping sweep. Among the other extensions, figr is the
// degraded-fabric resilience sweep (on the mini machine, so the snapshot
// also anchors the fault model's deterministic draw and the fault-aware
// routing layer), figq the learning-router comparison (also on mini — it
// anchors the qadaptive policy's Q-table trajectory end to end, saturation
// feedback included), figa the collective-workload sweep (it anchors the
// dependency-graph generators and the graph executor on both
// interconnects), figf the availability sweep (it anchors the flap
// expansion and the correlated group/bundle fault domains end to end,
// mid-run repair included), and xmulti the multijob co-runs (it anchors
// core.RunMulti: shared-pool placement in spec order and concurrent
// replays on one fabric).
var goldenIDs = []string{
	"table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"xmap", "xmulti", "figr", "figq", "figa", "figf",
}

func updateGolden() bool { return os.Getenv("UPDATE_GOLDEN") == "1" }

func goldenDir(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "golden")
}

// compareWithGolden checks got against the committed snapshot byte for byte.
// It returns an error describing the first divergence, or nil on an exact
// match. With UPDATE_GOLDEN=1 it rewrites the snapshot and reports nil.
func compareWithGolden(goldenPath string, got []byte) error {
	if updateGolden() {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			return err
		}
		return os.WriteFile(goldenPath, got, 0o644)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("missing golden file (run with UPDATE_GOLDEN=1 to create): %w", err)
	}
	if bytes.Equal(want, got) {
		return nil
	}
	// Locate the first differing byte for a useful failure message.
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	at := n
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			at = i
			break
		}
	}
	wantLine := 1 + bytes.Count(want[:min(at, len(want))], []byte("\n"))
	return fmt.Errorf("%s: output differs from golden at byte %d (line %d): golden %d bytes, got %d bytes",
		filepath.Base(goldenPath), at, wantLine, len(want), len(got))
}

// TestGoldenReports regenerates each anchored experiment at quick scale,
// seed 1, strictly sequentially, and requires byte-identical text and CSV
// output.
func TestGoldenReports(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Scale: ScaleQuick, Seed: 1, DataDir: dir, Parallel: 1}
			if id == "figr" || id == "figq" {
				// The fault-driven sweeps are anchored on the mini preset:
				// small enough to keep the suite fast, and a fixed named
				// machine so the fault draw is pinned independently of the
				// quick-scale default.
				opts.Machine = topology.Mini()
			}
			r := NewRunner(opts)
			rep, err := r.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			// One result path: the fresh runner's experiment requests each
			// of its cells once, so every counted cell was simulated once.
			if st := r.FarmStats(); st.Cells != st.InShard || st.Cells != st.Misses || st.Hits != 0 {
				t.Errorf("%s farm stats %+v: want Cells == InShard == Misses and 0 hits", id, st)
			}
			var buf bytes.Buffer
			if err := rep.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			if err := compareWithGolden(filepath.Join(goldenDir(t), id+".txt"), buf.Bytes()); err != nil {
				t.Error(err)
			}

			produced, err := filepath.Glob(filepath.Join(dir, "*.csv"))
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(produced)
			if len(produced) == 0 {
				t.Fatalf("%s produced no CSVs", id)
			}
			var names []string
			for _, p := range produced {
				names = append(names, filepath.Base(p))
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := compareWithGolden(filepath.Join(goldenDir(t), filepath.Base(p)), data); err != nil {
					t.Error(err)
				}
			}
			// A table silently disappearing must fail too: the committed CSV
			// set for this experiment and the produced set must agree.
			committed, err := filepath.Glob(filepath.Join(goldenDir(t), id+"_*.csv"))
			if err != nil {
				t.Fatal(err)
			}
			var wantNames []string
			for _, p := range committed {
				wantNames = append(wantNames, filepath.Base(p))
			}
			sort.Strings(wantNames)
			if !updateGolden() && strings.Join(names, ",") != strings.Join(wantNames, ",") {
				t.Errorf("%s CSV set %v does not match committed golden set %v", id, names, wantNames)
			}
		})
	}
}

// TestGoldenDetectsPerturbation proves the anchor has teeth: a golden copy
// with a single flipped byte must be reported as a mismatch. The perturbed
// copy lives in a temp dir; the committed snapshots are never touched.
func TestGoldenDetectsPerturbation(t *testing.T) {
	if updateGolden() {
		t.Skip("golden refresh in progress")
	}
	src := filepath.Join(goldenDir(t), "fig2.txt")
	content, err := os.ReadFile(src)
	if err != nil {
		t.Fatalf("read committed golden: %v", err)
	}
	if err := compareWithGolden(src, content); err != nil {
		t.Fatalf("pristine copy reported as mismatch: %v", err)
	}

	perturbed := append([]byte(nil), content...)
	at := len(perturbed) / 2
	perturbed[at] ^= 0x01
	tmp := filepath.Join(t.TempDir(), "fig2.txt")
	if err := os.WriteFile(tmp, perturbed, 0o644); err != nil {
		t.Fatal(err)
	}
	err = compareWithGolden(tmp, content)
	if err == nil {
		t.Fatal("one-byte perturbation not detected")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("byte %d", at)) {
		t.Fatalf("mismatch reported at the wrong position: %v", err)
	}
}

// TestAuditedExperimentGridClean runs the full small-config experiment grid
// (fig3: 3 applications x 10 placement-routing cells) under the invariant
// auditor: the committed model holds its flow-control physics on every cell
// the paper's headline figure draws from.
func TestAuditedExperimentGridClean(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates fig3 under the auditor")
	}
	r := NewRunner(Options{Scale: ScaleQuick, Seed: 1, Audit: true})
	if _, err := r.Figure3(); err != nil {
		t.Fatalf("audited fig3 grid: %v", err)
	}
}
