// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. IV). Each experiment is addressed by the paper's artifact
// id — "table1", "table2", "fig2" … "fig10" — and produces a Report of
// plain-text tables (and optionally CSV files) carrying the same rows or
// series the paper plots.
//
// Experiments run at two scales:
//
//   - ScalePaper: the Theta machine and the paper's application sizes
//     (1,000-rank CR and FB, 1,728-rank AMG). Minutes of wall time.
//   - ScaleQuick: a structurally similar small machine and proportionally
//     shrunk applications. Seconds of wall time; used by tests and benches.
//
// Absolute times differ from the paper (its CODES runs model a specific
// Aries microarchitecture and longer traces); the comparisons — which
// configuration wins, by roughly what factor, where crossovers fall — are
// the reproduction target (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/des"
	"dragonfly/internal/farm"
	"dragonfly/internal/faults"
	"dragonfly/internal/mapping"
	"dragonfly/internal/network"
	"dragonfly/internal/stats"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
	"dragonfly/internal/workload"
)

// defaultWatchdogEvents is the DES stall-watchdog budget armed on every
// experiment cell: orders of magnitude beyond any legitimate quick- or
// paper-scale run, so a trip always means a wedged simulation.
const defaultWatchdogEvents = 10_000_000_000

// Scale selects the experiment size.
type Scale int

const (
	// ScaleQuick shrinks machine and applications for fast runs.
	ScaleQuick Scale = iota
	// ScalePaper uses the Theta machine and the paper's application sizes.
	ScalePaper
)

func (s Scale) String() string {
	if s == ScalePaper {
		return "paper"
	}
	return "quick"
}

// Options configures a Runner.
type Options struct {
	Scale Scale
	Seed  int64
	// Machine overrides the machine the experiments run on; nil selects the
	// scale's default XC40 dragonfly (Theta at paper scale, a shrunk
	// Theta-like grid at quick scale). Non-default machines — e.g. the
	// Dragonfly+ presets — are extensions beyond the paper, and reports note
	// the machine label.
	Machine topology.Machine
	// DataDir, when non-empty, receives one CSV file per produced table.
	DataDir string
	// Progress, when non-nil, receives one line per completed simulation,
	// each in a single Write. Writes are serialized, so parallel workers
	// never interleave lines.
	Progress io.Writer
	// Parallel bounds the worker pool that independent simulations of one
	// experiment fan out across: 1 runs strictly sequentially, 0 (the
	// default) selects runtime.NumCPU(). Each simulation remains a
	// bit-reproducible sequential DES on its own engine, and results merge
	// in configuration order, so every Parallel value produces byte-identical
	// reports; only wall-clock time and the order of Progress lines change.
	Parallel int
	// BurstDivisor scales down the bursty background volume (Sec. IV-C) by
	// limiting each node's fan-out to (peers)/BurstDivisor while keeping
	// the per-peer message size; 0 means the scale's default (32 at paper
	// scale, 4 at quick scale). Table II always reports the full,
	// unscaled loads.
	BurstDivisor int
	// Audit runs every simulation under the invariant auditor
	// (core.Config.Audit): any flow-control, conservation, or routing
	// violation fails the experiment instead of silently skewing a figure.
	Audit bool
	// Faults degrades the fabric of every simulation cell with the given
	// fault spec (extension beyond the paper; the dfsweep -faults flag).
	// Nil or an empty spec leaves the fault machinery out entirely, so the
	// paper-reproduction reports stay byte-identical. The resilience sweep
	// (figr), the learning-router comparison (figq), and the availability
	// sweep (figf) drive their own fault specs and ignore this option; the
	// co-run study (xmulti), whose co-runs have no fault model, rejects it.
	Faults *faults.Spec
	// Farm, when non-nil, banks every simulation cell in the given
	// content-addressed store and replays banked cells instead of
	// re-simulating them. Results are bit-reproducible and records are
	// integrity-checked on read, so reports are byte-identical whether a
	// cell was simulated or recalled; a corrupt or missing entry silently
	// degrades to a re-run. FarmStats reports the hit/miss split.
	Farm *farm.Store
	// Retries bounds the re-attempts a failing cell gets before its error
	// stands (farm.Options.Retries); 0 fails on the first error.
	Retries int
	// JobTimeout is the per-cell wall-clock budget (farm.Options.JobTimeout);
	// 0 disables it.
	JobTimeout time.Duration
}

// Runner executes experiments. Every simulation cell — of the paper's
// figures and of the extension sweeps alike (xmulti's co-runs are not
// cells) — goes through one farm.Farm, whose memo makes figures that share
// runs (e.g. Figs. 3 and 4) pay for them once, and whose single-flight
// semantics run a cell exactly once even when several goroutines drive the
// Runner.
type Runner struct {
	opts Options
	farm *farm.Farm

	appMu sync.Mutex // guards apps
	apps  map[string]appWorkload

	mu        sync.Mutex // guards farmStats
	farmStats farm.Stats

	progressMu sync.Mutex // serializes Progress lines
}

// NewRunner builds a Runner.
func NewRunner(opts Options) *Runner {
	r := &Runner{opts: opts, apps: make(map[string]appWorkload)}
	fopts := farm.Options{Parallel: opts.Parallel, Retries: opts.Retries, JobTimeout: opts.JobTimeout}
	if opts.Progress != nil {
		fopts.Progress = r.cellDone
	}
	r.farm = farm.New(opts.Farm, fopts)
	return r
}

// FarmStats returns the accumulated farm statistics of every simulation
// cell this runner's experiments requested. Each experiment requests each
// of its cells once, so a cell counts once per experiment that draws on
// it; a cell an earlier experiment already resolved counts in Cells and
// InShard only. Without a store every new cell counts as simulated.
func (r *Runner) FarmStats() farm.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.farmStats
}

// experiment is one entry of the registry: an artifact id, whether it
// extends the paper, and the Runner method that produces its report.
type experiment struct {
	id        string
	extension bool
	run       func(*Runner) (*Report, error)
}

// registry lists every experiment: the paper's artifacts in the paper's
// order, then the extensions.
var registry = []experiment{
	{"table1", false, (*Runner).TableI},
	{"table2", false, (*Runner).TableII},
	{"fig2", false, (*Runner).Figure2},
	{"fig3", false, (*Runner).Figure3},
	{"fig4", false, (*Runner).Figure4},
	{"fig5", false, (*Runner).Figure5},
	{"fig6", false, (*Runner).Figure6},
	{"fig7", false, (*Runner).Figure7},
	{"fig8", false, (*Runner).Figure8},
	{"fig9", false, (*Runner).Figure9},
	{"fig10", false, (*Runner).Figure10},
	{"xmap", true, (*Runner).XMap},
	{"xmulti", true, (*Runner).XMulti},
	{"figr", true, (*Runner).FigureR},
	{"figq", true, (*Runner).FigureQ},
	{"figa", true, (*Runner).FigureA},
	{"figf", true, (*Runner).FigureF},
}

// registryIDs returns the ids of the paper's artifacts or of the
// extensions, in registry order.
func registryIDs(extension bool) []string {
	var ids []string
	for _, e := range registry {
		if e.extension == extension {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// IDs lists the experiment identifiers in the paper's order.
func IDs() []string { return registryIDs(false) }

// ExtensionIDs lists the extension experiments.
func ExtensionIDs() []string { return registryIDs(true) }

// Run executes one experiment by id.
func (r *Runner) Run(id string) (*Report, error) {
	lower := strings.ToLower(id)
	for _, e := range registry {
		if e.id == lower {
			return e.run(r)
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (known: %s; extensions: %s)",
		id, strings.Join(IDs(), ", "), strings.Join(ExtensionIDs(), ", "))
}

// --- report model -----------------------------------------------------------

// Table is one printable/CSV-able result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Plot is a pre-rendered ASCII figure accompanying the tables.
type Plot struct {
	Title string
	Text  string
}

// Report is the output of one experiment.
type Report struct {
	ID     string
	Title  string
	Notes  []string
	Tables []Table
	Plots  []Plot
}

// WriteText renders the report as aligned plain text. The whole report is
// assembled in one pre-sized buffer and handed to the writer in a single
// call: a paper-scale figure is hundreds of table rows, and per-line writes
// both fragment the output and re-grow the destination repeatedly.
func (rep *Report) WriteText(w io.Writer) error {
	// First pass: column widths per table, and a close size estimate for
	// the rendered text (padded line length x line count per table).
	widths := make([][]int, len(rep.Tables))
	size := len(rep.ID) + len(rep.Title) + 48
	for _, n := range rep.Notes {
		size += len(n) + len("   note: \n")
	}
	for ti := range rep.Tables {
		t := &rep.Tables[ti]
		ws := make([]int, len(t.Columns))
		for i, c := range t.Columns {
			ws[i] = len(c)
		}
		for _, row := range t.Rows {
			for i, cell := range row {
				if i < len(ws) && len(cell) > ws[i] {
					ws[i] = len(cell)
				}
			}
		}
		widths[ti] = ws
		lineLen := 2*len(ws) + 1
		for _, wd := range ws {
			lineLen += wd
		}
		size += len(t.Title) + 8 + (len(t.Rows)+1)*lineLen
	}
	for _, p := range rep.Plots {
		size += len(p.Title) + 8 + len(p.Text)
	}

	var b strings.Builder
	b.Grow(size + 1)
	fmt.Fprintf(&b, "== %s: %s (scale not shown; see notes) ==\n", rep.ID, rep.Title)
	for _, n := range rep.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	for ti := range rep.Tables {
		t := &rep.Tables[ti]
		ws := widths[ti]
		fmt.Fprintf(&b, "\n-- %s --\n", t.Title)
		line := func(cells []string) string {
			parts := make([]string, len(cells))
			for i, c := range cells {
				// Ragged rows may carry more cells than the header; surplus
				// cells print unpadded instead of indexing past widths.
				pad := 0
				if i < len(ws) {
					pad = ws[i]
				}
				parts[i] = fmt.Sprintf("%-*s", pad, c)
			}
			return strings.TrimRight(strings.Join(parts, "  "), " ")
		}
		fmt.Fprintln(&b, line(t.Columns))
		for _, row := range t.Rows {
			fmt.Fprintln(&b, line(row))
		}
	}
	for _, p := range rep.Plots {
		fmt.Fprintf(&b, "\n-- %s --\n%s", p.Title, p.Text)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes each table as <dir>/<id>_<slug>.csv. Each file is built
// in a buffer pre-sized to its exact byte count and written at once.
func (rep *Report) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range rep.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", rep.ID, slug(t.Title)))
		size := 0
		for _, c := range t.Columns {
			size += len(c) + 1
		}
		for _, row := range t.Rows {
			for _, cell := range row {
				size += len(cell) + 1
			}
		}
		var b strings.Builder
		b.Grow(size)
		b.WriteString(strings.Join(t.Columns, ","))
		b.WriteByte('\n')
		for _, row := range t.Rows {
			b.WriteString(strings.Join(row, ","))
			b.WriteByte('\n')
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func slug(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case b.Len() > 0 && !strings.HasSuffix(b.String(), "_"):
			b.WriteRune('_')
		}
	}
	return strings.Trim(b.String(), "_")
}

// finish optionally dumps CSVs and returns the report.
func (r *Runner) finish(rep *Report) (*Report, error) {
	rep.Notes = append(rep.Notes, fmt.Sprintf("scale=%s seed=%d", r.opts.Scale, r.opts.Seed))
	if r.opts.Machine != nil {
		// Default machines add no note, keeping the paper-reproduction
		// reports (and their golden snapshots) byte-stable.
		rep.Notes = append(rep.Notes, fmt.Sprintf("machine=%s (extension beyond the paper)", r.opts.Machine.Label()))
	}
	if !r.opts.Faults.Empty() && rep.ID != "figr" && rep.ID != "figq" && rep.ID != "figf" {
		rep.Notes = append(rep.Notes, fmt.Sprintf("faults=%s (degraded fabric, extension beyond the paper)", r.opts.Faults))
	}
	if r.opts.DataDir != "" {
		if err := rep.WriteCSV(r.opts.DataDir); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func (r *Runner) progressf(format string, args ...interface{}) {
	if r.opts.Progress != nil {
		r.progressMu.Lock()
		defer r.progressMu.Unlock()
		fmt.Fprintf(r.opts.Progress, format+"\n", args...)
	}
}

// --- machine and application catalogs ---------------------------------------

// Machine returns the machine the runner's experiments execute on: the
// Options override when set, else the scale's default XC40 dragonfly.
// Exported so cmd/dffarm can build sweep cells with the exact machine the
// experiment vocabulary implies.
func (r *Runner) Machine() topology.Machine {
	if r.opts.Machine != nil {
		return r.opts.Machine
	}
	if r.opts.Scale == ScalePaper {
		return topology.Theta()
	}
	return topology.Quick()
}

// appNames lists the paper's applications in presentation order.
func appNames() []string { return []string{"CR", "FB", "AMG"} }

// machineNodes returns the compute-node count of the experiment machine.
func (r *Runner) machineNodes() int {
	return topology.BuildMachine(r.Machine()).NumNodes()
}

// appWorkload is one application's workload at the runner's scale, as
// trace.BuildApp returns it: a trace for the paper's miniapps, a graph for
// the generators.
type appWorkload struct {
	tr *trace.Trace
	g  *trace.Graph
}

// ranks returns the workload's rank count.
func (w appWorkload) ranks() int {
	if w.g != nil {
		return w.g.NumRanks()
	}
	return w.tr.NumRanks()
}

// app returns the named application's workload at the runner's scale: the
// catalog's Paper size at paper scale, its Quick size otherwise.
// Generation is deterministic (fixed internal seeds) and workloads are
// read-only during simulation, so the runner builds each one once and
// shares the pointer across cells, which also lets the farm encoder's
// per-pointer content-digest memoization take effect across an
// experiment's whole grid.
func (r *Runner) app(name string) (appWorkload, error) {
	r.appMu.Lock()
	defer r.appMu.Unlock()
	if w, ok := r.apps[name]; ok {
		return w, nil
	}
	size := trace.Quick
	if r.opts.Scale == ScalePaper {
		size = trace.Paper
	}
	var w appWorkload
	var err error
	if w.tr, w.g, err = trace.BuildApp(name, size); err != nil {
		return appWorkload{}, err
	}
	r.apps[name] = w
	return w, nil
}

// AppTrace returns the trace of one of the paper's applications ("CR",
// "FB", "AMG") at the runner's scale, the pointer every cell shares.
func (r *Runner) AppTrace(name string) (*trace.Trace, error) {
	w, err := r.app(name)
	if err == nil && w.tr == nil {
		err = fmt.Errorf("experiments: %s is a graph application, not a trace", name)
	}
	return w.tr, err
}

// Background returns the scale-appropriate interference configuration of
// the given kind for a target application — the exact objects the paper's
// Figs. 8-10 grids use. Exported so cmd/dffarm sweeps name backgrounds with
// the same vocabulary ("uniform", "bursty") and get identical cells, which
// is what lets a farm store populated by dffarm serve experiment reruns.
func (r *Runner) Background(kind workload.BackgroundKind, app string) (*workload.BackgroundConfig, error) {
	switch kind {
	case workload.UniformRandom:
		// The paper's uniform-random interference: 16 KiB per node per
		// interval (Sec. IV-C / Table II).
		cfg := workload.BackgroundConfig{
			Kind:     workload.UniformRandom,
			MsgBytes: 16 * 1024,
			Interval: 50 * des.Microsecond, // within the paper's 0.002-1 ms band
		}
		if r.opts.Scale == ScaleQuick {
			// Sized to the miniature apps' microsecond-scale runs so several
			// interference waves land while they communicate.
			cfg.MsgBytes = 32 * 1024
			cfg.Interval = 5 * des.Microsecond
		}
		return &cfg, nil
	case workload.Bursty:
		w, err := r.app(app)
		if err != nil {
			return nil, err
		}
		cfg := r.burstyBackground(app, r.machineNodes()-w.ranks())
		return &cfg, nil
	}
	return nil, fmt.Errorf("experiments: unknown background kind %v", kind)
}

// burstyBackground returns the paper's bursty interference for a target
// application: 16 KiB per peer for the CR runs, 1 KiB for FB and AMG
// (decoded from Table II), with the volume reduced by BurstDivisor via a
// fan-out limit so full-machine bursts stay simulable.
func (r *Runner) burstyBackground(app string, bgNodes int) workload.BackgroundConfig {
	per := int64(16 * 1024)
	if app != "CR" {
		per = 1024
	}
	div := r.opts.BurstDivisor
	if div == 0 {
		if r.opts.Scale == ScalePaper {
			div = 32
		} else {
			div = 4
		}
	}
	fan := (bgNodes - 1) / div
	if fan < 1 {
		fan = 1
	}
	cfg := workload.BackgroundConfig{
		Kind:     workload.Bursty,
		MsgBytes: per,
		Interval: 500 * des.Microsecond, // within the paper's 0.1-60 ms band
		FanOut:   fan,
	}
	if r.opts.Scale == ScaleQuick {
		cfg.MsgBytes = 32 * 1024
		cfg.Interval = 25 * des.Microsecond
	}
	return cfg
}

// --- shared simulation plumbing ---------------------------------------------

// simReq identifies one simulation cell of an experiment. The zero machine,
// mapping and fault spec select the runner's defaults: r.Machine(), the
// identity task mapping, and Options.Faults. Sweeps that own the fault axis
// (figr, figq, figf) mark a healthy cell with an empty spec, which the farm
// address and core.Run both treat exactly like nil.
type simReq struct {
	app      string
	cell     core.Cell
	msgScale float64
	bg       *workload.BackgroundConfig
	machine  topology.Machine
	mapping  mapping.Policy
	faults   *faults.Spec
}

// CellConfig builds the full run configuration of one simulation cell —
// the object the canonical farm encoder hashes, and exactly what the Runner
// requests from its farm. Exported so cmd/dffarm constructs cells identical
// (same content address) to the ones the experiments produce; sweep axes
// the runner options don't span (per-cell seeds, fault specs, task
// mappings) are overridden on the returned config, which is equivalent to a
// runner constructed with those options.
func (r *Runner) CellConfig(app string, cell core.Cell, msgScale float64, bg *workload.BackgroundConfig) (core.Config, error) {
	rq := simReq{app: app, cell: cell, msgScale: msgScale, bg: bg}
	return r.cellConfig(rq)
}

func (r *Runner) cellConfig(rq simReq) (core.Config, error) {
	machine := rq.machine
	if machine == nil {
		machine = r.Machine()
	}
	spec := rq.faults
	if spec == nil {
		spec = r.opts.Faults
	}
	cfg := core.Config{
		Topology:  machine,
		Params:    network.DefaultParams(),
		Placement: rq.cell.Placement,
		Routing:   rq.cell.Routing,
		Mapping:   rq.mapping,
		MsgScale:  rq.msgScale,
		Seed:      r.opts.Seed,
		Audit:     r.opts.Audit,
		Faults:    spec,
		// The stall watchdog is always armed: a wedged cell (a degraded
		// fabric, a flow-control bug) fails with a queue diagnostic instead
		// of hanging the sweep. The budget is far beyond any legitimate run.
		WatchdogEvents: defaultWatchdogEvents,
	}
	// Graph-generator applications carry their workload as a dependency
	// graph; the paper's miniapps stay flat traces (lowered on replay), so
	// every pre-graph-IR farm address remains reachable.
	w, err := r.app(rq.app)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Trace, cfg.Graph = w.tr, w.g
	if rq.bg != nil {
		b := *rq.bg
		cfg.Background = &b
		// Interference runs cannot drain the queue; bound them.
		cfg.MaxSimTime = des.Second
	}
	return cfg, nil
}

// resolve runs (or recalls) cells through the farm in one request, so they
// fan out across the worker pool, and returns one result per request in
// request order. It is the runner's one result path: each experiment lists
// its whole grid once, in table order, calls resolve once, and renders from
// the returned slice by grid position. With one worker, cells then run and
// report progress in exactly that order. A cell listed twice in one request
// would count as a hit, so grids list each cell once. Cells an earlier
// experiment resolved come from the farm's memo and count in FarmStats'
// Cells and InShard only. The first failed or unfinished cell, in request
// order, is the error; every cell is attempted first. Safe for concurrent
// use.
func (r *Runner) resolve(reqs []simReq) ([]*core.Result, error) {
	cfgs := make([]core.Config, len(reqs))
	for i, rq := range reqs {
		cfg, err := r.cellConfig(rq)
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	results, stats, err := r.farm.Run(cfgs)
	r.mu.Lock()
	r.farmStats.Add(stats)
	r.mu.Unlock()
	for i, res := range results {
		rq := reqs[i]
		if res == nil {
			return nil, fmt.Errorf("experiments: %s under %s%s: %w", rq.app, rq.cell.Name(), r.extraAxes(cfgs[i]), err)
		}
		if !res.Completed {
			return nil, unfinished(rq.app+" under "+rq.cell.Name()+r.extraAxes(cfgs[i]), cfgs[i].MaxSimTime, res.Duration)
		}
	}
	return results, nil
}

// unfinished is the error of a cell whose job did not finish: cut at its
// deadline, or stalled, the event queue emptied before any deadline (0 =
// none) with ranks still waiting.
func unfinished(cell string, deadline, ended des.Time) error {
	if deadline > 0 && ended >= deadline {
		return fmt.Errorf("experiments: %s did not complete within %v", cell, deadline)
	}
	return fmt.Errorf("experiments: %s stalled: the event queue emptied at %v with the job unfinished", cell, ended)
}

// cellDone is the farm's progress callback: one line, in one Write, per
// cell just simulated or read from the store.
func (r *Runner) cellDone(ev farm.Progress) {
	res := ev.Result
	if res == nil || !res.Completed {
		return
	}
	verb := "ran"
	if ev.Hit {
		verb = "hit"
	}
	cfg := res.Config
	r.progressf("%s %-3s %-9s scale=%-5g bg=%-12s simtime=%v events=%d%s",
		verb, cfg.WorkloadApp(), cfg.Name(), orOne(cfg.MsgScale), describeBG(cfg.Background), res.Duration, res.Events,
		r.extraAxes(cfg))
}

// extraAxes renders the machine, task mapping and fault spec of a cell as
// " key=value" pairs, each only where it departs from the runner's
// defaults, so paper-figure cells name just their grid axes.
func (r *Runner) extraAxes(cfg core.Config) string {
	var b strings.Builder
	if cfg.Topology.CanonicalSpec() != r.Machine().CanonicalSpec() {
		b.WriteString(" machine=" + cfg.Topology.Label())
	}
	if cfg.Mapping != mapping.Identity {
		b.WriteString(" mapping=" + cfg.Mapping.String())
	}
	if spec := cfg.Faults.String(); spec != r.opts.Faults.String() {
		if spec == "" {
			spec = "none"
		}
		b.WriteString(" faults=" + spec)
	}
	return b.String()
}

func orOne(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}

func describeBG(bg *workload.BackgroundConfig) string {
	if bg == nil {
		return "none"
	}
	return fmt.Sprintf("%s/%dB", bg.Kind, bg.MsgBytes)
}

// fmtF renders a float compactly for tables.
func fmtF(v float64) string { return fmt.Sprintf("%.4g", v) }

// medianMaxHops renders the median_ms, max_ms and mean_hops columns of one
// result: its median and maximum communication time and its mean hops.
func medianMaxHops(res *core.Result) []string {
	b := stats.BoxOf(res.CommTimesMs())
	return []string{fmtF(b.Median), fmtF(b.Max), fmtF(stats.Mean(res.AvgHops))}
}

// percentileRow renders [p25 p50 p75 p90 max] of values; ok for empty input.
func percentileRow(values []float64) []string {
	if len(values) == 0 {
		return []string{"-", "-", "-", "-", "-"}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	qs := []float64{0.25, 0.5, 0.75, 0.9, 1.0}
	out := make([]string, len(qs))
	for i, q := range qs {
		idx := int(q * float64(len(s)-1))
		out[i] = fmtF(s[idx])
	}
	return out
}
