package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// renderReport runs one experiment on a fresh runner at the given worker
// count and returns the rendered text plus every CSV file's bytes.
func renderReport(t *testing.T, id string, parallel int) (string, map[string]string) {
	t.Helper()
	return renderReportOpts(t, id, Options{Scale: ScaleQuick, Seed: 1, Parallel: parallel})
}

// renderReportOpts is renderReport with full control over the runner
// options; DataDir is always overridden with a fresh temp dir.
func renderReportOpts(t *testing.T, id string, opts Options) (string, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	opts.DataDir = dir
	r := NewRunner(opts)
	rep, err := r.Run(id)
	if err != nil {
		t.Fatalf("%s parallel=%d: %v", id, opts.Parallel, err)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	csvs := map[string]string{}
	matches, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(matches)
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		csvs[filepath.Base(m)] = string(data)
	}
	if len(csvs) == 0 {
		t.Fatalf("%s produced no CSVs", id)
	}
	return buf.String(), csvs
}

// The tentpole contract: the parallel sweep executor's reports — rendered
// tables and CSV bytes — are byte-identical to the strictly sequential run,
// for every worker count.
func TestParallelReportsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates fig3 and fig8 several times")
	}
	workerCounts := []int{2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, id := range []string{"fig3", "fig8"} {
		seqText, seqCSV := renderReport(t, id, 1)
		for _, workers := range workerCounts {
			parText, parCSV := renderReport(t, id, workers)
			if parText != seqText {
				t.Errorf("%s: parallel=%d report text differs from sequential:\n%s",
					id, workers, firstDiff(seqText, parText))
			}
			if len(parCSV) != len(seqCSV) {
				t.Fatalf("%s: parallel=%d wrote %d CSVs, sequential %d", id, workers, len(parCSV), len(seqCSV))
			}
			for name, want := range seqCSV {
				if got, ok := parCSV[name]; !ok {
					t.Errorf("%s: parallel=%d missing CSV %s", id, workers, name)
				} else if got != want {
					t.Errorf("%s: parallel=%d CSV %s differs from sequential", id, workers, name)
				}
			}
		}
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + "\n  vs " + bl[i]
		}
	}
	return "length mismatch"
}

// The single-flight contract directly: hammer two cells from many
// goroutines, each resolving a one-cell grid, and require exactly two
// simulations, each cell's result shared by every caller.
func TestResultCacheSingleFlight(t *testing.T) {
	var progress syncBuffer
	r := NewRunner(Options{Scale: ScaleQuick, Seed: 1, Progress: &progress})
	cells := backgroundGrid("CR", nil)[:2]
	const goroutines = 8
	results := make([]interface{}, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := r.resolve(cells[g%len(cells) : g%len(cells)+1])
			if err != nil {
				results[g] = err
				return
			}
			results[g] = res[0]
		}(g)
	}
	wg.Wait()
	if st := r.FarmStats(); st.Misses != len(cells) || st.Hits != 0 {
		t.Fatalf("%d simulations, %d hits, want %d/0 (single flight per cell)", st.Misses, st.Hits, len(cells))
	}
	if lines := strings.Count(progress.String(), "\n"); lines != len(cells) {
		t.Fatalf("%d progress lines, want one per simulated cell (%d)", lines, len(cells))
	}
	for g := 0; g < goroutines; g++ {
		if _, ok := results[g].(error); ok {
			t.Fatalf("goroutine %d: %v", g, results[g])
		}
		if g >= len(cells) && results[g] != results[g%len(cells)] {
			t.Fatalf("goroutine %d got a different result object than its cell's first runner: %v", g, results[g])
		}
	}
}

// Progress output must stay line-atomic under parallel workers: every line
// is complete and well-formed.
func TestParallelProgressLinesNotInterleaved(t *testing.T) {
	var buf syncBuffer
	r := NewRunner(Options{Scale: ScaleQuick, Seed: 1, Parallel: 4, Progress: &buf})
	if _, err := r.Figure3(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 30 {
		t.Fatalf("progress lines = %d, want 30 (3 apps x 10 cells)", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "ran ") || !strings.Contains(line, "events=") {
			t.Fatalf("malformed (interleaved?) progress line: %q", line)
		}
	}
}

// Extension sweeps report progress through the same callback as the
// paper's grids: one line per cell, naming the axes a cell sweeps beyond
// the runner's defaults (here xmap's task mapping and figr's fault draw).
func TestExtensionProgressNamesSweptAxes(t *testing.T) {
	var buf syncBuffer
	r := NewRunner(Options{Scale: ScaleQuick, Seed: 1, Parallel: 1, Progress: &buf, Machine: topology.Mini()})
	for _, id := range []string{"xmap", "figr"} {
		if _, err := r.Run(id); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4+16 {
		t.Fatalf("%d progress lines, want 20 (xmap 4 + figr 16):\n%s", len(lines), buf.String())
	}
	mapped, faulted := 0, 0
	for _, line := range lines {
		if !strings.HasPrefix(line, "ran ") || strings.Contains(line, "machine=") {
			t.Fatalf("malformed progress line: %q", line)
		}
		if strings.Contains(line, " mapping=") {
			mapped++
		}
		if strings.Contains(line, " faults=global=") {
			faulted++
		}
	}
	if mapped != 3 || faulted != 12 {
		t.Fatalf("%d lines name a mapping (want 3), %d a fault draw (want 12):\n%s", mapped, faulted, buf.String())
	}
}

// syncBuffer makes the test's own reads race-safe; the Runner already
// serializes its writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// The wall-clock budget bounds every experiment cell: paper figures and
// extension sweeps share one cell path through the runner's farm.
func TestJobTimeoutBoundsGridCells(t *testing.T) {
	r := NewRunner(Options{Scale: ScaleQuick, Seed: 1, Parallel: 1, JobTimeout: time.Nanosecond})
	_, err := r.Figure3()
	if err == nil || !strings.Contains(err.Error(), "wall-clock budget") {
		t.Fatalf("Figure3 under a 1ns budget returned %v, want the wall-clock-budget error", err)
	}
}

// writeCounter records each Write call separately.
type writeCounter struct{ writes []string }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, string(p))
	return len(p), nil
}

// With one worker, Figure 10 reports each of its 20 cells (FB x 10 cells x
// two backgrounds) in exactly one Write, as it finishes, and in grid order:
// the ten cells under the uniform background, then under the bursty one.
// Timing harnesses measure cells by the gaps between those writes, and
// dfsweep's progress lines follow the figure's layout.
func TestFigure10ProgressOneWritePerCell(t *testing.T) {
	var w writeCounter
	r := NewRunner(Options{Scale: ScaleQuick, Seed: 1, Parallel: 1, Progress: &w})
	if _, err := r.Figure10(); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 20 {
		t.Fatalf("%d progress writes, want 20", len(w.writes))
	}
	var want []string
	for _, kind := range []workload.BackgroundKind{workload.UniformRandom, workload.Bursty} {
		bg, err := r.Background(kind, "FB")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range core.AllCells() {
			want = append(want, fmt.Sprintf("FB %s bg=%s", c.Name(), describeBG(bg)))
		}
	}
	for i, line := range w.writes {
		if !strings.HasPrefix(line, "ran FB ") || strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") {
			t.Fatalf("progress write %q is not one complete cell line", line)
		}
		f := strings.Fields(line)
		if got := strings.Join([]string{f[1], f[2], f[4]}, " "); got != want[i] {
			t.Fatalf("progress line %d names %q, want %q", i, got, want[i])
		}
	}
}
