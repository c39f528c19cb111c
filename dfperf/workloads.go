package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/experiments"
	"dragonfly/internal/farm"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/trace"
	"dragonfly/internal/workload"
)

// goldenFig3 is the committed seed-1 Figure 3 report, relative to the
// repository root the benchmark runs from.
const goldenFig3 = "internal/experiments/testdata/golden/fig3.txt"

// sweepWorkers is the sweep_resume worker count: the farm is a throughput
// executor, and two workers match the two-CPU hosts the benchmark is tuned on.
const sweepWorkers = 2

// sweepSeeds is the number of per-cell seeds in sweep_resume; set-up banks
// all but the last, so about 80% of each pass hits the store.
const sweepSeeds = 5

// bench is one workload of the benchmark, built by its set-up function.
// Every workload is a closed-loop batch: the next cell starts when a worker
// frees.
type bench interface {
	// reference runs untimed after the timed loop: where the timed pass
	// does not call core.Run itself, it simulates each cell with core.Run,
	// checks the outputs, and fixes the digests traced cells must reproduce.
	reference() passStats
	// pass runs the workload's cells once and times the part it measures.
	pass() passStats
	// tracedPass runs the same cells through the traced composition.
	tracedPass(t *tracer) passStats
}

// passStats is what one pass produced.
type passStats struct {
	wall     time.Duration // the timed part of the pass
	cellMs   []float64     // host ms of each cell, in cell order
	cells    int           // cells attempted
	failed   int           // cells that errored, did not complete, or failed verification
	renderMs float64       // Report.WriteText (Runner workloads)
	hits     int           // farm hits (sweep_resume)
	recordKB float64       // mean stored record size (sweep_resume)
	errs     []error
}

func (ps *passStats) fail(n int, err error) {
	ps.failed += n
	ps.errs = append(ps.errs, err)
}

// cell is one simulation of a workload, named for verification messages and
// the recorded digest table.
type cell struct {
	name string
	cfg  core.Config
}

// spec names a workload and builds it. Set-up gets its own directory and
// the tracer (nil when untraced). It runs setupRuns times and setup_s is the
// median: the simulation workloads set up in milliseconds, so they repeat
// often enough to read steadily; sweep_resume banks a store for seconds.
// The count is fixed, not timed, because every set-up's traces stay
// memoized in the trace package and so count toward peak memory.
//
// A workload runs on as many CPUs (GOMAXPROCS) as it has workers, so the
// collector's work counts against the workers' time instead of hiding on an
// idle CPU whose availability the host's other tenants decide.
type spec struct {
	name      string
	cpus      int
	setupRuns int
	setup     func(seed int64, dir string, t *tracer) (bench, error)
}

var specs = []spec{
	{"fig3_quick", 1, 25, func(seed int64, _ string, t *tracer) (bench, error) { return setupRunner("fig3", seed, t) }},
	{"fig10_interference", 1, 25, func(seed int64, _ string, t *tracer) (bench, error) { return setupRunner("fig10", seed, t) }},
	{"theta_cr", 1, 25, func(seed int64, _ string, t *tracer) (bench, error) { return setupTheta(seed, t) }},
	{"sweep_resume", sweepWorkers, 3, setupSweep},
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// genTrace times trace generation and lowering into the graph IR.
func genTrace(t *tracer, gen func() (*trace.Trace, error)) (*trace.Trace, error) {
	sp := t.start("trace.gen", -1, -1)
	tr, err := gen()
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.start("trace.lower", -1, -1)
	tr.Graph()
	t.end(sp)
	return tr, nil
}

// --- fig3_quick, fig10_interference -----------------------------------------

// runnerWorkload regenerates one experiment through a fresh Runner per pass
// with one worker, as dfsweep does.
type runnerWorkload struct {
	id     string
	seed   int64
	cells  []cell
	text   []byte // expected report: the golden one, else the first pass's
	source string
	want   map[string]string
}

func setupRunner(id string, seed int64, t *tracer) (*runnerWorkload, error) {
	name := map[string]string{"fig3": "fig3_quick", "fig10": "fig10_interference"}[id]
	rec, err := loadRecorded()
	if err != nil {
		return nil, err
	}
	w := &runnerWorkload{id: id, seed: seed, source: "the first pass", want: rec.expected(name, seed)}
	if id == "fig3" && seed == 1 {
		if w.text, err = os.ReadFile(goldenFig3); err != nil {
			return nil, err
		}
		w.source = goldenFig3
	}
	r := experiments.NewRunner(experiments.Options{Scale: experiments.ScaleQuick, Seed: seed, Parallel: 1})
	apps := []string{"CR", "FB", "AMG"}
	if id == "fig10" {
		apps = []string{"FB"}
	}
	for _, app := range apps {
		if _, err := genTrace(t, func() (*trace.Trace, error) { return r.AppTrace(app) }); err != nil {
			return nil, err
		}
	}
	bgs := []*workload.BackgroundConfig{nil}
	if id == "fig10" {
		bgs = nil
		for _, kind := range []workload.BackgroundKind{workload.UniformRandom, workload.Bursty} {
			bg, err := r.Background(kind, "FB")
			if err != nil {
				return nil, err
			}
			bgs = append(bgs, bg)
		}
	}
	for _, bg := range bgs {
		for _, app := range apps {
			for _, c := range core.AllCells() {
				cfg, err := r.CellConfig(app, c, 1, bg)
				if err != nil {
					return nil, err
				}
				w.cells = append(w.cells, cell{fmt.Sprintf("%s %s %s", app, c.Name(), bgName(bg)), cfg})
			}
		}
	}
	return w, nil
}

func bgName(bg *workload.BackgroundConfig) string {
	if bg == nil {
		return "none"
	}
	return bg.Kind.String()
}

func (w *runnerWorkload) reference() passStats { return runCells(w.cells, w.want) }

// runCells simulates each cell with core.Run and checks it against want.
func runCells(cells []cell, want map[string]string) passStats {
	ps := passStats{cells: len(cells)}
	start := time.Now()
	for _, c := range cells {
		t0 := time.Now()
		res, err := core.Run(c.cfg)
		ps.cellMs = append(ps.cellMs, ms(time.Since(t0)))
		if err == nil {
			err = checkCell(want, c.name, res)
		}
		if err != nil {
			ps.fail(1, err)
		}
	}
	ps.wall = time.Since(start)
	return ps
}

// progressClock timestamps the Runner's per-cell progress lines; with one
// worker the gap between lines is one cell's host time.
type progressClock struct {
	last time.Time
	ms   []float64
}

func (c *progressClock) Write(p []byte) (int, error) {
	now := time.Now()
	c.ms = append(c.ms, ms(now.Sub(c.last)))
	c.last = now
	return len(p), nil
}

func (w *runnerWorkload) pass() passStats {
	ps := passStats{cells: len(w.cells)}
	start := time.Now()
	clock := &progressClock{last: start}
	r := experiments.NewRunner(experiments.Options{
		Scale: experiments.ScaleQuick, Seed: w.seed, Parallel: 1, Progress: clock,
	})
	rep, err := r.Run(w.id)
	var buf bytes.Buffer
	if err == nil {
		t0 := time.Now()
		err = rep.WriteText(&buf)
		ps.renderMs = ms(time.Since(t0))
	}
	ps.wall = time.Since(start)
	ps.cellMs = clock.ms
	switch {
	case err != nil:
		ps.fail(len(w.cells), err)
	case len(clock.ms) != len(w.cells):
		ps.fail(len(w.cells), fmt.Errorf("%s: %d cells ran, want %d", w.id, len(clock.ms), len(w.cells)))
	case w.text == nil:
		w.text = buf.Bytes()
	case !bytes.Equal(buf.Bytes(), w.text):
		ps.fail(len(w.cells), fmt.Errorf("%s: report differs from %s", w.id, w.source))
	}
	return ps
}

func (w *runnerWorkload) tracedPass(t *tracer) passStats {
	return tracedCells(t, w.cells, w.want)
}

// tracedCells runs each cell through the traced composition and requires
// the digest core.Run produced for it.
func tracedCells(t *tracer, cells []cell, want map[string]string) passStats {
	ps := passStats{cells: len(cells)}
	start := time.Now()
	for _, c := range cells {
		t0 := time.Now()
		res, err := t.run(c.cfg, -1, t.cell())
		ps.cellMs = append(ps.cellMs, ms(time.Since(t0)))
		if err == nil {
			err = checkTraced(want, c.name, res)
		}
		if err != nil {
			ps.fail(1, err)
		}
	}
	ps.wall = time.Since(start)
	return ps
}

// --- theta_cr ---------------------------------------------------------------

// thetaWorkload runs CR at 1000 ranks on the paper's Theta machine at the
// two ends of the trade-off, each cell a timed core.Run.
type thetaWorkload struct {
	cells []cell
	want  map[string]string
}

func setupTheta(seed int64, t *tracer) (*thetaWorkload, error) {
	rec, err := loadRecorded()
	if err != nil {
		return nil, err
	}
	tr, err := genTrace(t, func() (*trace.Trace, error) { return trace.CR(trace.DefaultCR()) })
	if err != nil {
		return nil, err
	}
	w := &thetaWorkload{want: rec.expected("theta_cr", seed)}
	for _, c := range []core.Cell{
		{Placement: placement.Contiguous, Routing: routing.Minimal},
		{Placement: placement.RandomNode, Routing: routing.Adaptive},
	} {
		w.cells = append(w.cells, cell{"CR " + c.Name(), core.ThetaConfig(tr, c, seed)})
	}
	return w, nil
}

// reference is empty: every timed pass is core.Run and checks itself.
func (w *thetaWorkload) reference() passStats { return passStats{} }

func (w *thetaWorkload) pass() passStats { return runCells(w.cells, w.want) }

func (w *thetaWorkload) tracedPass(t *tracer) passStats { return tracedCells(t, w.cells, w.want) }

// --- sweep_resume -----------------------------------------------------------

// sweepWorkload resumes a dffarm-style quick sweep against a store banked
// in set-up: each pass starts from a copy of the banked store, so banked
// cells replay (hits) and the last seed's cells simulate and bank (misses).
type sweepWorkload struct {
	dir    string
	cells  []cell
	banked int
	want   map[string]string // banked cells: set-up's simulated digests
}

func setupSweep(seed int64, dir string, t *tracer) (bench, error) {
	r := experiments.NewRunner(experiments.Options{Scale: experiments.ScaleQuick, Seed: seed})
	apps := []string{"CR", "FB", "AMG"}
	for _, app := range apps {
		if _, err := genTrace(t, func() (*trace.Trace, error) { return r.AppTrace(app) }); err != nil {
			return nil, err
		}
	}
	w := &sweepWorkload{dir: dir, want: map[string]string{}}
	var bank []core.Config
	var bankIdx []int
	for _, app := range apps {
		for _, pol := range placement.All() {
			for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
				c := core.Cell{Placement: pol, Routing: mech}
				for k := int64(0); k < sweepSeeds; k++ {
					cfg, err := r.CellConfig(app, c, 1, nil)
					if err != nil {
						return nil, err
					}
					cfg.Seed = seed + k
					w.cells = append(w.cells, cell{fmt.Sprintf("%s %s seed%d", app, c.Name(), cfg.Seed), cfg})
					if k < sweepSeeds-1 {
						bank = append(bank, cfg)
						bankIdx = append(bankIdx, len(w.cells)-1)
					}
				}
			}
		}
	}
	store, err := farm.Open(w.storeDir())
	if err != nil {
		return nil, err
	}
	results, _, err := farm.New(store, farm.Options{Parallel: sweepWorkers}).Run(bank)
	if err != nil {
		return nil, err
	}
	w.banked = len(bank)
	for j, i := range bankIdx {
		if err := checkCell(w.want, w.cells[i].name, results[j]); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *sweepWorkload) storeDir() string { return filepath.Join(w.dir, "banked") }

// freshStore copies the banked store into an empty working store.
func (w *sweepWorkload) freshStore() (*farm.Store, error) {
	work := filepath.Join(w.dir, "work")
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := copyTree(w.storeDir(), work); err != nil {
		return nil, err
	}
	return farm.Open(work)
}

// reference is empty: set-up simulated the banked cells, and each pass
// checks its hits against them.
func (w *sweepWorkload) reference() passStats { return passStats{} }

func (w *sweepWorkload) pass() passStats {
	ps := passStats{cells: len(w.cells)}
	store, err := w.freshStore()
	if err != nil {
		ps.fail(len(w.cells), err)
		return ps
	}
	cfgs := make([]core.Config, len(w.cells))
	for i, c := range w.cells {
		cfgs[i] = c.cfg
	}
	ps.cellMs = make([]float64, len(cfgs))
	start := time.Now()
	results, st, err := farm.New(store, farm.Options{
		Parallel: sweepWorkers,
		Progress: func(ev farm.Progress) { ps.cellMs[ev.Index] = ms(ev.Elapsed) },
	}).Run(cfgs)
	ps.wall = time.Since(start)
	ps.hits = st.Hits
	if err != nil {
		ps.fail(len(w.cells), err)
		return ps
	}
	if st.Hits != w.banked || st.Misses != len(w.cells)-w.banked {
		ps.fail(len(w.cells), fmt.Errorf("sweep_resume: %d hits and %d misses, want %d and %d",
			st.Hits, st.Misses, w.banked, len(w.cells)-w.banked))
		return ps
	}
	// Hits must reproduce set-up's simulation, misses the first pass's.
	for i, c := range w.cells {
		if results[i] == nil {
			ps.fail(1, fmt.Errorf("%s: no result", c.name))
		} else if err := checkCell(w.want, c.name, results[i]); err != nil {
			ps.fail(1, err)
		}
	}
	return ps
}

// tracedPass is the farm's cell path — address, store read, replay or
// simulate and bank — rebuilt from the farm's public calls, one span each,
// on the same two workers.
func (w *sweepWorkload) tracedPass(t *tracer) passStats {
	ps := passStats{cells: len(w.cells)}
	store, err := w.freshStore()
	if err != nil {
		ps.fail(len(w.cells), err)
		return ps
	}
	results := make([]*core.Result, len(w.cells))
	errs := make([]error, len(w.cells))
	ps.cellMs = make([]float64, len(w.cells))
	var mu sync.Mutex
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < sweepWorkers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				res, hit, err := tracedFarmCell(t, store, w.cells[i].cfg)
				d := ms(time.Since(t0))
				mu.Lock()
				results[i], errs[i] = res, err
				ps.cellMs[i] = d
				if hit {
					ps.hits++
				}
				mu.Unlock()
			}
		}()
	}
	for i := range w.cells {
		next <- i
	}
	close(next)
	wg.Wait()
	ps.wall = time.Since(start)
	for i, c := range w.cells {
		err := errs[i]
		if err == nil {
			err = checkTraced(w.want, c.name, results[i])
		}
		if err != nil {
			ps.fail(1, err)
		}
	}
	if ps.hits != w.banked {
		ps.fail(0, fmt.Errorf("traced sweep_resume: %d hits, want %d", ps.hits, w.banked))
	}
	ps.recordKB, err = meanFileKB(store.Root())
	if err != nil {
		ps.fail(0, err)
	}
	return ps
}

// tracedFarmCell resolves one config the way farm.Farm does.
func tracedFarmCell(t *tracer, store *farm.Store, cfg core.Config) (*core.Result, bool, error) {
	id := t.cell()
	root := t.start("farm.cell", -1, id)
	defer t.end(root)
	sp := t.start("farm.address", root, id)
	enc, err := farm.Encode(cfg)
	addr := farm.AddressOf(enc)
	t.end(sp)
	if err != nil {
		return nil, false, err
	}
	sp = t.start("farm.get", root, id)
	rec, err := store.Get(addr)
	t.end(sp)
	if err == nil {
		sp = t.start("farm.result", root, id)
		res := rec.Result(cfg)
		t.end(sp)
		return res, true, nil
	}
	if !errors.Is(err, farm.ErrMiss) {
		return nil, false, err
	}
	res, err := t.run(cfg, root, id)
	if err != nil {
		return nil, false, err
	}
	sp = t.start("farm.put", root, id)
	err = store.Put(addr, farm.RecordOf(res))
	t.end(sp)
	return res, false, err
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// meanFileKB is the mean size of the regular files under dir, in KiB.
func meanFileKB(dir string) (float64, error) {
	var total, n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		n++
		return nil
	})
	if err != nil || n == 0 {
		return 0, err
	}
	return float64(total) / float64(n) / 1024, nil
}
