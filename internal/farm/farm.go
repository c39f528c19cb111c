package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/core"
)

// Options configures a Farm run.
type Options struct {
	// Parallel bounds the in-process worker pool; <= 0 selects NumCPU.
	Parallel int
	// Shard/NumShards select a 1-of-N slice of the config set for
	// multi-process sharding: this process executes exactly the cells
	// whose index i satisfies i % NumShards == Shard, and leaves nil
	// results at every other index. NumShards <= 1 runs everything.
	// Shards partition the job, so concurrent shard processes over one
	// store never simulate the same cell.
	Shard     int
	NumShards int
	// Progress, when non-nil, receives one callback per finished cell
	// (hit, simulated, or failed), serialized across workers and across
	// concurrent Runs. Cells resolved by another Run fire none.
	Progress func(ev Progress)

	// JobTimeout bounds each simulation attempt's wall-clock time; <= 0
	// means unlimited. A timed-out attempt's goroutine is abandoned (Go
	// cannot kill it), so the budget should be generous — it exists to keep
	// one wedged cell from stalling a thousand-cell sweep, not to race the
	// simulator. Timed-out attempts are retried like any other failure.
	JobTimeout time.Duration
	// Retries is the number of re-attempts after a failed simulation
	// (panic, injected fault, timeout): a cell runs at most 1+Retries
	// times. Retries back off exponentially from RetryBackoff with
	// deterministic per-(cell, attempt) jitter.
	Retries int
	// RetryBackoff is the base delay before the first retry; <= 0 selects
	// defaultRetryBackoff. Successive retries double it, capped at
	// maxRetryBackoff.
	RetryBackoff time.Duration
	// QuarantineLimit enables poisoned-job quarantine when > 0: a cell
	// that fails all its attempts is quarantined — recorded with
	// diagnostics under <store>/quarantine/jobs/, reported in Stats, and
	// its result left nil — instead of failing the sweep, until this many
	// cells have been quarantined. Beyond the limit (or at 0) a poisoned
	// cell fails the run, so degradation is always bounded and explicit.
	QuarantineLimit int
	// Chaos, when non-nil, injects worker-level faults (kills, panics,
	// simulated stalls) and is installed on the store for I/O faults. Used
	// by the chaos suite to prove the machinery above; nil in production.
	Chaos *chaos.Injector
}

// defaultRetryBackoff and maxRetryBackoff bound the retry delay schedule.
const (
	defaultRetryBackoff = 5 * time.Millisecond
	maxRetryBackoff     = 2 * time.Second
)

// Progress describes one finished cell.
type Progress struct {
	Index   int // config index within the job
	Total   int // cells this process executes (its shard)
	Done    int // cells finished so far, this one included
	Addr    string
	Hit     bool          // replayed from the store
	Elapsed time.Duration // wall time of this cell
	// Result is the cell's result, nil when it failed or was quarantined.
	// It is shared with every other request for the address: read-only.
	Result *core.Result
	Err    error
}

// Stats counts what a Run did. A warm rerun of a completed job shows
// Misses == 0 and Hits == InShard: zero simulations. Cells this Farm
// resolved in an earlier or concurrent Run count in Cells and InShard only.
type Stats struct {
	Cells       int // configs passed in
	InShard     int // cells this process was responsible for
	Hits        int // replayed from the store without simulating
	Misses      int // simulated (no entry existed)
	Corrupt     int // entries that failed verification and were re-run
	Uncacheable int // simulated without touching the store (no canonical encoding)
	Errors      int // cells whose simulation failed
	WriteErrors int // results that simulated fine but failed to persist
	Retried     int // re-attempts after failed simulations
	Quarantined int // cells abandoned after exhausting retries (nil results, recorded on disk)
}

// Add accumulates another run's counters, e.g. across the batches of one
// sweep or the shards of one job.
func (s *Stats) Add(o Stats) {
	s.Cells += o.Cells
	s.InShard += o.InShard
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Corrupt += o.Corrupt
	s.Uncacheable += o.Uncacheable
	s.Errors += o.Errors
	s.WriteErrors += o.WriteErrors
	s.Retried += o.Retried
	s.Quarantined += o.Quarantined
}

// Farm is the simulator's cell executor: every sweep, figure, and batch
// runs its configurations through one. It fans cells over a bounded worker
// pool behind one panic firewall, applies the retry, wall-clock budget, and
// quarantine policy of Options, and resolves each content address once per
// Farm — against a Store when one is attached.
type Farm struct {
	store *Store
	opts  Options

	mu         sync.Mutex
	flights    map[string]*flight
	progressMu sync.Mutex
}

// flight is the single-flight slot and in-memory memo of one address: the
// first request resolves it, every later request — a duplicate cell of the
// same Run, or any cell of a later or concurrent Run — waits for and shares
// its outcome (result, error, or quarantine decision).
type flight struct {
	owner       *run
	wait        chan struct{}
	res         *core.Result
	err         error
	quarantined bool
}

// run is the state of one Run call.
type run struct {
	total       int
	done        int // guarded by Farm.progressMu
	quarantined int // guarded by Farm.mu, against QuarantineLimit
}

// New builds a Farm. A nil store means no persistence: cells simulate (once
// per address) and live only in the Farm's memo. A chaos injector in opts is
// installed on the store too, so one option arms every injection site.
func New(store *Store, opts Options) *Farm {
	if opts.NumShards > 1 && (opts.Shard < 0 || opts.Shard >= opts.NumShards) {
		panic(fmt.Sprintf("farm: shard %d out of range of %d shards", opts.Shard, opts.NumShards))
	}
	if opts.Chaos != nil && store != nil {
		store.SetChaos(opts.Chaos)
	}
	return &Farm{store: store, opts: opts, flights: make(map[string]*flight)}
}

// inShard reports whether cell index i belongs to this process's shard.
func (f *Farm) inShard(i int) bool {
	if f.opts.NumShards <= 1 {
		return true
	}
	return i%f.opts.NumShards == f.opts.Shard
}

// Run executes the config set: cache hits replay instantly, misses simulate
// and persist, and everything outside this process's shard is skipped (nil
// result). Each simulation is a bit-reproducible sequential DES, so results
// are identical at every Parallel value. Results return in config order and
// the error is the first failed cell in config order, so parallelism never
// changes what callers observe; all cells are attempted even after a
// failure.
//
// Run is safe for concurrent use. A cell whose address this Farm already
// resolved — in an earlier Run, or one still in progress — returns the
// shared outcome without touching this Run's Stats or firing Progress: the
// Run that resolved it counted and reported it. A failed cell stays failed
// for the Farm's lifetime; build a new Farm to retry it.
func (f *Farm) Run(cfgs []core.Config) ([]*core.Result, Stats, error) {
	stats := Stats{Cells: len(cfgs)}
	results := make([]*core.Result, len(cfgs))
	errs := make([]error, len(cfgs))

	var mine []int
	for i := range cfgs {
		if f.inShard(i) {
			mine = append(mine, i)
		}
	}
	stats.InShard = len(mine)
	rn := &run{total: len(mine)}

	workers := f.opts.Parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(mine) {
		workers = len(mine)
	}
	var statsMu sync.Mutex
	runOne := func(i int) {
		start := time.Now()
		res, addr, cell, err := f.runCell(rn, cfgs[i])
		results[i], errs[i] = res, err
		if cell == (Stats{}) {
			return // resolved by another Run
		}
		statsMu.Lock()
		stats.Add(cell)
		statsMu.Unlock()
		f.progress(rn, Progress{
			Index: i, Addr: addr, Hit: cell.Hits > 0,
			Elapsed: time.Since(start), Result: res, Err: err,
		})
	}
	if workers <= 1 {
		for _, i := range mine {
			runOne(i)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					runOne(i)
				}
			}()
		}
		for _, i := range mine {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	for _, err := range errs {
		if err != nil {
			return results, stats, err
		}
	}
	return results, stats, nil
}

// runCell resolves one configuration: from the Farm's memo, from the store,
// or by simulating (once per address, under single-flight, with retries)
// and persisting. The returned Stats are zero exactly when another Run
// resolved the address; the address is empty for uncacheable cells.
func (f *Farm) runCell(rn *run, cfg core.Config) (*core.Result, string, Stats, error) {
	var cell Stats
	enc, err := Encode(cfg)
	if err != nil {
		// No canonical identity: simulate without caching rather than
		// refuse the cell. Retries and quarantine still apply, keyed by
		// the cell's name.
		cell.Uncacheable++
		res, _, err := f.simulate(rn, cfg, cfg.Name(), "", &cell)
		return res, "", cell, err
	}
	addr := AddressOf(enc)

	f.mu.Lock()
	if fl, ok := f.flights[addr]; ok {
		f.mu.Unlock()
		<-fl.wait
		if fl.owner == rn {
			// A duplicate cell of this Run.
			switch {
			case fl.quarantined:
				cell.Quarantined++
			case fl.err != nil:
				cell.Errors++
			default:
				cell.Hits++
			}
		}
		return fl.res, addr, cell, fl.err
	}
	fl := &flight{owner: rn, wait: make(chan struct{})}
	f.flights[addr] = fl
	f.mu.Unlock()
	defer close(fl.wait)

	if f.store != nil {
		rec, err := f.store.Get(addr)
		if err == nil {
			cell.Hits++
			fl.res = rec.Result(cfg)
			return fl.res, addr, cell, nil
		}
		if !errors.Is(err, ErrMiss) {
			// Corrupt entries and I/O errors (permissions, dead disk)
			// degrade to a re-run, whose Put heals the entry: the store is
			// a cache, never a source of truth.
			cell.Corrupt++
		}
	}

	cell.Misses++
	fl.res, fl.quarantined, fl.err = f.simulate(rn, cfg, addr, addr, &cell)
	if fl.res != nil && f.store != nil {
		if err := f.store.Put(addr, RecordOf(fl.res)); err != nil {
			// A failed write loses only future cache hits, not this result.
			cell.WriteErrors++
		}
	}
	return fl.res, addr, cell, fl.err
}

// simulate runs a cell with retries. A cell that exhausts its retry budget
// is quarantined when the run has quarantine headroom — nil result, no
// error — otherwise it fails.
func (f *Farm) simulate(rn *run, cfg core.Config, key, addr string, cell *Stats) (*core.Result, bool, error) {
	res, attempts, errLines, err := f.runWithRetries(cfg, key, cell)
	if err == nil {
		return res, false, nil
	}
	if f.tryQuarantine(rn, cfg, addr, attempts, errLines) {
		cell.Quarantined++
		return nil, true, nil
	}
	cell.Errors++
	return nil, false, err
}

// runWithRetries executes a cell up to 1+Retries times with seeded
// exponential backoff, collecting one diagnostic line per failed attempt
// (the quarantine record's evidence). It returns the attempts taken and, on
// total failure, the last attempt's error.
func (f *Farm) runWithRetries(cfg core.Config, key string, cell *Stats) (*core.Result, int, []string, error) {
	budget := 1 + f.opts.Retries
	if budget < 1 {
		budget = 1
	}
	var errLines []string
	var lastErr error
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			cell.Retried++
			time.Sleep(retryDelay(f.opts.RetryBackoff, key, attempt))
		}
		res, err := f.attempt(cfg, key)
		if err == nil {
			return res, attempt + 1, errLines, nil
		}
		lastErr = err
		errLines = append(errLines, firstLine(err.Error()))
	}
	return nil, budget, errLines, lastErr
}

// attempt executes one simulation attempt: worker-level chaos, then the
// wall-clock-budgeted run, then the simulated-stall site. Chaos decisions
// key on the cell's identity (its address or name), never its execution
// slot, so chaos runs reproduce across worker counts.
func (f *Farm) attempt(cfg core.Config, key string) (*core.Result, error) {
	if f.opts.Chaos.Fire(chaos.SiteWorkerKill, key) {
		return nil, fmt.Errorf("farm: %s: chaos: injected worker kill", cfg.Name())
	}
	res, err := f.runBudgeted(cfg, key)
	if err != nil {
		return nil, err
	}
	if f.opts.Chaos.Fire(chaos.SiteSimStall, key) {
		return nil, fmt.Errorf("farm: %s: chaos: injected simulation stall", cfg.Name())
	}
	return res, nil
}

// runBudgeted applies the per-attempt wall-clock budget. A timed-out
// attempt's goroutine keeps running unobserved until the simulation returns
// — Go offers no way to kill it — which is why the timeout abandons rather
// than cancels; its eventual result is discarded.
func (f *Farm) runBudgeted(cfg core.Config, key string) (*core.Result, error) {
	if f.opts.JobTimeout <= 0 {
		return runSafe(cfg, f.opts.Chaos, key)
	}
	type outcome struct {
		res *core.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := runSafe(cfg, f.opts.Chaos, key)
		ch <- outcome{res, err}
	}()
	timer := time.NewTimer(f.opts.JobTimeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timer.C:
		return nil, fmt.Errorf("farm: %s: attempt exceeded wall-clock budget %s; abandoned", cfg.Name(), f.opts.JobTimeout)
	}
}

// tryQuarantine records a poisoned cell and consumes one unit of the run's
// quarantine budget. It returns false — the cell must fail the run — when
// quarantine is disabled or the budget is spent.
func (f *Farm) tryQuarantine(rn *run, cfg core.Config, addr string, attempts int, errLines []string) bool {
	if f.opts.QuarantineLimit <= 0 {
		return false
	}
	f.mu.Lock()
	if rn.quarantined >= f.opts.QuarantineLimit {
		f.mu.Unlock()
		return false
	}
	rn.quarantined++
	f.mu.Unlock()
	if f.store != nil {
		// A failed record write must not turn graceful degradation back
		// into a hard failure; the cell is still reported via
		// Stats.Quarantined.
		_ = f.store.QuarantineJob(&QuarantineRecord{
			Addr: addr, Name: cfg.Name(), Attempts: attempts, Errors: errLines,
		})
	}
	return true
}

// runSim is the simulator entry point, a variable only so tests can stand
// in a wedged simulation and prove the wall-clock budget trips.
var runSim = core.Run

// runSafe is core.Run behind the simulator's one panic firewall: a wedged or
// buggy cell becomes that cell's error, stack trace included, instead of
// killing sibling workers and the whole sweep with them. The chaos panic
// site fires inside the protected region, proving the firewall contains
// real mid-cell panics.
func runSafe(cfg core.Config, in *chaos.Injector, key string) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("farm: %s: panic: %v\n%s", cfg.Name(), r, debug.Stack())
		}
	}()
	if in.Fire(chaos.SiteWorkerPanic, key) {
		panic("chaos: injected worker panic")
	}
	return runSim(cfg)
}

// retryDelay is the backoff before retry attempt (attempt >= 1): base
// doubled per attempt, scaled by a deterministic jitter in [0.5, 1.5) drawn
// from the cell key — retries of one hot store directory spread out, and a
// rerun schedules identically.
func retryDelay(base time.Duration, key string, attempt int) time.Duration {
	if base <= 0 {
		base = defaultRetryBackoff
	}
	d := base << (attempt - 1)
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	_, _ = h.Write([]byte{byte(attempt)})
	jitter := 0.5 + float64(h.Sum64()>>11)/float64(1<<53)
	d = time.Duration(float64(d) * jitter)
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	return d
}

// firstLine trims a diagnostic to its first line: quarantine records keep
// the failure's headline, not a stack dump whose addresses differ run to
// run.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func (f *Farm) progress(rn *run, ev Progress) {
	if f.opts.Progress == nil {
		return
	}
	f.progressMu.Lock()
	defer f.progressMu.Unlock()
	rn.done++
	ev.Total, ev.Done = rn.total, rn.done
	f.opts.Progress(ev)
}

// --- job manifests ----------------------------------------------------------

// Manifest records one job's identity and completion state under
// <root>/jobs/<job>.json. The content-addressed entries are the real resume
// state — a re-run skips every address that verifies — so the manifest is
// bookkeeping: it lets a resuming process report how much of the job is
// already banked before the first cell runs, and ties a human-readable spec
// to the job hash.
type Manifest struct {
	Job   string `json:"job"`
	Spec  string `json:"spec,omitempty"`
	Cells int    `json:"cells"`
	// Done is the number of cells with a verifiable entry when the
	// manifest was last written.
	Done int `json:"done"`
}

// JobID hashes the ordered address list of a job's cells: the job identity
// for manifests. Shards of one job share a JobID because they share the
// full config set.
func JobID(addrs []string) string {
	h := sha256.New()
	for _, a := range addrs {
		h.Write([]byte(a))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (s *Store) manifestPath(job string) string {
	return filepath.Join(s.root, "jobs", job+".json")
}

// LoadManifest reads a job manifest; ErrMiss if none exists.
func (s *Store) LoadManifest(job string) (*Manifest, error) {
	data, err := os.ReadFile(s.manifestPath(job))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrMiss
		}
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("farm: manifest %s: %w", job, err)
	}
	return &m, nil
}

// SaveManifest writes a job manifest atomically.
func (s *Store) SaveManifest(m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir := filepath.Dir(s.manifestPath(m.Job))
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, s.manifestPath(m.Job))
}

// CountCached reports how many of the given addresses have verifiable
// entries — the resume position of a job.
func (s *Store) CountCached(addrs []string) int {
	n := 0
	for _, a := range addrs {
		if s.Has(a) {
			n++
		}
	}
	return n
}
