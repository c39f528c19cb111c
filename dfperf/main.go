// Command dfperf is the repository's end-to-end and per-layer benchmark.
//
//	bash dfperf/run.sh --workload fig3_quick [--seed 1] [--seconds 10] [--trace 0|1]
//
// It builds a workload's inputs from the seed (timed as set-up), runs the
// workload's passes for the given seconds, checks every simulated output,
// and prints the metrics, ending with one JSON line. With --trace 0 it
// reports the end-to-end metrics of an untraced run; with --trace 1 it adds
// a traced run and reports the per-layer metrics (see README.md).
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// catalogJSON describes every workload and metric: unit, direction, layer,
// what each per-layer metric should move, and this commit's baseline.
//
//go:embed metrics.json
var catalogJSON []byte

// metricInfo and catalog decode the parts of metrics.json the command and
// its tests read.
type metricInfo struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type catalog struct {
	Workloads map[string]string `json:"workloads"`
	EndToEnd  []metricInfo      `json:"end_to_end"`
	PerLayer  []metricInfo      `json:"per_layer"`
}

func loadCatalog() (*catalog, error) {
	var c catalog
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return &c, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("dfperf", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: fig3_quick, fig10_interference, theta_cr, sweep_resume")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "timed seconds per loop (whole passes; at least one)")
	traced := fl.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	dir := fl.String("dir", ".bench_build/dfperf", "directory for scratch stores, spans and CPU profiles")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cat, err := loadCatalog()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var sp *spec
	for i := range specs {
		if specs[i].name == *name {
			sp = &specs[i]
		}
	}
	if sp == nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "dfperf: need --workload (fig3_quick, fig10_interference, theta_cr, sweep_resume), --seconds > 0, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(sp.cpus)
	work := filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(work)

	var tr *tracer
	if *traced == 1 {
		tr = newTracer()
	}
	var w bench
	var setups []float64
	for len(setups) < sp.setupRuns {
		d := filepath.Join(work, fmt.Sprintf("setup%d", len(setups)))
		t0 := time.Now()
		w, err = sp.setup(*seed, d, tr)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			fmt.Fprintf(stderr, "dfperf: %s set-up: %v\n", *name, err)
			return 1
		}
	}

	// Reference simulations run first: they fix the digests that untraced
	// and traced passes must reproduce.
	ref := w.reference()
	var base loop
	out := result{metrics: map[string]float64{}}
	if tr == nil {
		base = measure(*seconds, w.pass)
		endToEnd(out.metrics, base, median(setups))
	} else {
		var traced loop
		var profs [][]byte
		base, traced, profs, err = interleaved(*seconds, w.pass, func() passStats { return w.tracedPass(tr) })
		if err == nil {
			perLayer(out.metrics, tr, base, traced)
			err = saveTrace(*dir, *name, *seed, tr, profs)
		}
		if err != nil {
			fmt.Fprintln(stderr, "dfperf:", err)
			return 1
		}
		out.attempted += traced.cells
		out.failed += traced.failed
		ref.errs = append(ref.errs, traced.errs...)
	}
	out.attempted += ref.cells + base.cells
	out.failed += ref.failed + base.failed
	errs := append(ref.errs, base.errs...)
	for _, e := range errs {
		fmt.Fprintln(stderr, "dfperf: FAIL:", e)
	}

	infos := cat.EndToEnd
	if tr != nil {
		infos = cat.PerLayer
	}
	fmt.Fprintf(stdout, "%s seed=%d trace=%d passes=%d cells=%d failed=%d wall=%.3fs cpu=%.3fs\n",
		*name, *seed, *traced, base.passes, out.attempted, out.failed, base.wall.Seconds(), base.cpu.Seconds())
	fmt.Fprintf(stdout, "  cell samples n=%d: %d cells x %d passes; p50/p90 nearest-rank over each cell's median\n",
		base.samples, len(base.perCell), base.passes)
	fmt.Fprintf(stdout, "  pass ms: %.0f\n", base.passMs)
	metrics := map[string]metricOut{}
	for _, m := range infos {
		v, ok := out.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", m.Name, v, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "dfperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	attempted, failed int
	metrics           map[string]float64
}

// loop aggregates the passes of one timed loop.
type loop struct {
	passes        int
	cells, failed int
	wall          time.Duration
	perCell       [][]float64 // each cell's host ms, one sample per pass
	samples       int
	passMs        []float64
	passRate      []float64 // cells per second of each pass
	renderMs      []float64
	hits          int
	recordKB      float64
	errs          []error
	mallocs       uint64
	allocBytes    uint64
	numGC         uint32
	cpu           time.Duration
	rssMB         float64            // peak resident memory through set-up and the first pass
	layerNs       map[string]float64 // sampled CPU per layer bucket, when profiled
}

// run runs one pass from a collected heap, so the collector's schedule, and
// with it peak memory, repeats from pass to pass, and adds it to the loop.
func (l *loop) run(pass func() passStats) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	ps := pass()
	l.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	l.mallocs += m1.Mallocs - m0.Mallocs
	l.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	l.numGC += m1.NumGC - m0.NumGC

	l.passes++
	l.cells += ps.cells
	l.failed += ps.failed
	l.errs = append(l.errs, ps.errs...)
	l.wall += ps.wall
	if l.perCell == nil {
		l.perCell = make([][]float64, len(ps.cellMs))
	}
	if len(ps.cellMs) == len(l.perCell) {
		for i, v := range ps.cellMs {
			if v > 0 {
				l.perCell[i] = append(l.perCell[i], v)
				l.samples++
			}
		}
	}
	l.passMs = append(l.passMs, ms(ps.wall))
	l.passRate = append(l.passRate, float64(ps.cells)/ps.wall.Seconds())
	l.renderMs = append(l.renderMs, ps.renderMs)
	l.hits += ps.hits
	l.recordKB = ps.recordKB
	if l.passes == 1 {
		l.rssMB = peakRSSMB()
	}
}

// measure runs whole passes until seconds have elapsed (at least one pass).
func measure(seconds float64, pass func() passStats) loop {
	var l loop
	for start := time.Now(); l.passes == 0 || time.Since(start).Seconds() < seconds; {
		l.run(pass)
	}
	return l
}

// interleaved alternates untraced and traced passes, each under the CPU
// profiler, for about seconds of each. Pairing the passes in time keeps the
// host's drift out of their comparison. It returns the traced passes'
// profiles.
func interleaved(seconds float64, pass, traced func() passStats) (base, tr loop, profs [][]byte, err error) {
	base.layerNs, tr.layerNs = map[string]float64{}, map[string]float64{}
	for start := time.Now(); base.passes == 0 || time.Since(start).Seconds() < 2*seconds; {
		if _, err = profile(base.layerNs, func() { base.run(pass) }); err != nil {
			return
		}
		var prof []byte
		if prof, err = profile(tr.layerNs, func() { tr.run(traced) }); err != nil {
			return
		}
		profs = append(profs, prof)
	}
	return
}

// profile runs fn under the CPU profiler, adds the profile's per-layer CPU
// time to w, and returns the profile.
func profile(w map[string]float64, fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), cpuWeights(w, buf.Bytes())
}

// cellsPerS is the median pass's throughput: one disturbed pass does not
// move it.
func (l *loop) cellsPerS() float64 { return median(l.passRate) }

func endToEnd(m map[string]float64, l loop, setupS float64) {
	var sorted []float64
	for _, xs := range l.perCell {
		sorted = append(sorted, median(xs))
	}
	sort.Float64s(sorted)
	m["cells_per_s"] = l.cellsPerS()
	m["cell_ms_p50"] = nearestRank(sorted, 0.5)
	m["cell_ms_p90"] = nearestRank(sorted, 0.9)
	m["setup_s"] = setupS
	m["peak_rss_mb"] = l.rssMB
	m["alloc_mb_per_cell"] = float64(l.allocBytes) / 1e6 / float64(l.cells)
}

// perLayer derives the per-layer metrics from the traced passes' spans,
// counters and CPU profiles, and from the untraced passes interleaved with
// them.
func perLayer(m map[string]float64, t *tracer, base, traced loop) {
	cpu, baseCPU := shares(traced.layerNs), shares(base.layerNs)
	c, sims := t.cnt, float64(t.sims)
	m["des.events_per_cell"] = float64(c.events) / sims
	m["des.ns_per_event"] = float64(c.loopNs) / float64(c.events)
	m["des.pending_peak"] = float64(c.pendingPeak)
	m["des.pending_mean"] = float64(c.pendingSum) / float64(c.pendingN)
	m["des.cpu_share"] = cpu["des"]
	m["network.new_ms"] = t.meanMs("network.new")
	m["network.finish_ms"] = t.meanMs("network.finish")
	m["network.packets_per_cell"] = float64(c.packets) / sims
	m["network.credits_per_cell"] = float64(c.credits) / sims
	m["network.cpu_share"] = cpu["network"]
	m["routing.routes_per_cell"] = float64(c.routes) / sims
	m["routing.nonminimal_frac"] = float64(c.nonminimal) / float64(c.routes)
	m["routing.cpu_share"] = cpu["routing"]
	m["topology.build_ms"] = t.meanMs("topology.build")
	m["trace.gen_ms"] = t.meanMs("trace.gen")
	m["trace.lower_ms"] = t.meanMs("trace.lower")
	m["placement.alloc_ms"] = t.meanMs("placement.alloc")
	m["workload.new_replay_ms"] = t.meanMs("workload.new_replay")
	m["workload.cpu_share"] = cpu["workload"]
	m["core.run_ms"] = t.meanMs("core.run")
	// Runner passes only: the share of the pass's CPU spent neither inside
	// core.Run nor in the collector is the experiments layer's overhead.
	if render := median(base.renderMs); render > 0 {
		m["experiments.overhead_ms"] = baseCPU[outsideRun] * median(base.passMs)
		m["experiments.render_ms"] = render
	}
	m["farm.address_ms"] = t.meanMs("farm.address")
	m["farm.get_ms"] = t.meanMs("farm.get")
	m["farm.result_ms"] = t.meanMs("farm.result")
	m["farm.put_ms"] = t.meanMs("farm.put")
	m["farm.record_kb"] = traced.recordKB
	m["farm.hit_ratio"] = float64(traced.hits) / float64(traced.cells)
	m["farm.cpu_share"] = cpu["farm"]
	m["runtime.gc_cpu_share"] = cpu["runtime.gc"]
	m["runtime.gc_per_cell"] = float64(base.numGC) / float64(base.cells)
	m["runtime.allocs_per_cell"] = float64(base.mallocs) / float64(base.cells)
	m["bench.trace_overhead_frac"] = 1 - traced.cellsPerS()/base.cellsPerS()
}

// saveTrace writes the traced run's spans and its passes' CPU profiles
// (go tool pprof merges several).
func saveTrace(dir, name string, seed int64, t *tracer, profs [][]byte) error {
	d := filepath.Join(dir, "trace")
	if err := os.MkdirAll(d, 0o755); err != nil {
		return err
	}
	base := filepath.Join(d, fmt.Sprintf("%s-seed%d", name, seed))
	for i, p := range profs {
		if err := os.WriteFile(fmt.Sprintf("%s-pass%d.cpu.pprof", base, i), p, 0o644); err != nil {
			return err
		}
	}
	return t.write(base + ".spans.jsonl")
}

// nearestRank is the p-quantile of sorted by the nearest-rank rule.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
