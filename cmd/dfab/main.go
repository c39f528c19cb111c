// Command dfab is a one-process A/B timer for the simulator: it runs the
// same experiment cells on two builds of the simulator's packages linked
// into one binary, alternating the two cell by cell, and reports the
// per-cell wall-time and thread-CPU ratios of the change against the base,
// pooled over each cell set and, for wall time, cell by cell.
//
// Separate processes alternated on a shared host see different cache,
// frequency and co-tenant conditions from run to run; cells interleaved in
// one process share them, so the ratio of one cell pair reads the code, not
// the moment. Run it through make, which builds the two-sided binary:
//
//	make ab BASE=<rev>                    # fig10 cells, working tree vs <rev>
//	make ab BASE=HEAD                     # A/A check: should read 1.00 ± 0.02
//	make ab BASE=<rev> CELLS=fig3,theta   # Figure 3 and Theta CR cells too
//
// ab.sh (next to this file) copies the working tree's internal/ and this
// command into a throwaway module, exports <rev>'s internal/ into it as
// internalb/ with its imports rewritten, and adds a second copy of side.go
// importing internalb/. Built in the repository itself the command has one
// side only and refuses to run.
//
// Cell sets: fig10 (Figure 10 at quick scale: FB under uniform and bursty
// background, 20 cells), fig3 (Figure 3 at quick scale: CR, FB and AMG, 30
// cells) and theta (CR at 1000 ranks on Theta, contiguous-minimal and
// random-adaptive). Every pass runs each cell once on each side, the side
// going first alternating from cell to cell and pass to pass; both sides
// must report the same event count and simulated time for every cell.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// cell is one simulation a side can run: run returns the cell's DES event
// count and simulated time in nanoseconds.
type cell struct {
	name string
	run  func() (events uint64, simNs int64, err error)
}

// side is one build of the simulator: cells builds the named cell set.
type side struct {
	name  string
	cells func(set string) ([]cell, error)
}

// sides holds the builds linked in, registered by each copy of side.go.
var sides []side

func register(name string, cells func(set string) ([]cell, error)) {
	sides = append(sides, side{name: name, cells: cells})
}

// seed is the experiment seed of every cell set, dfperf's default.
const seed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("dfab", flag.ContinueOnError)
	fl.SetOutput(stderr)
	sets := fl.String("cells", "fig10", "comma-separated cell sets: fig10, fig3, theta")
	passes := fl.Int("passes", 8, "alternating passes over each cell set")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *passes < 1 {
		fmt.Fprintln(stderr, "dfab: -passes must be at least 1")
		return 2
	}
	base, change, err := pickSides()
	if err != nil {
		fmt.Fprintln(stderr, "dfab:", err)
		return 2
	}
	// Thread CPU is read per OS thread, so the timing goroutine keeps one.
	runtime.LockOSThread()
	for _, set := range strings.Split(*sets, ",") {
		if err := abSet(stdout, set, *passes, base, change); err != nil {
			fmt.Fprintln(stderr, "dfab:", err)
			return 1
		}
	}
	return 0
}

// pickSides returns the base and change builds, which ab.sh registers as
// "base" and "change".
func pickSides() (base, change side, err error) {
	var haveBase, haveChange bool
	for _, s := range sides {
		switch s.name {
		case "base":
			base, haveBase = s, true
		case "change":
			change, haveChange = s, true
		}
	}
	if !haveBase || !haveChange {
		return base, change, fmt.Errorf("this binary links %d build(s); run it through `make ab BASE=<rev>`", len(sides))
	}
	return base, change, nil
}

// sample is one cell run's host cost.
type sample struct{ wall, cpu time.Duration }

// abSet runs one cell set on both sides for the given passes, after one
// untimed warm-up pass, and prints the ratios.
func abSet(w io.Writer, set string, passes int, base, change side) error {
	bc, err := base.cells(set)
	if err != nil {
		return fmt.Errorf("base: %w", err)
	}
	cc, err := change.cells(set)
	if err != nil {
		return fmt.Errorf("change: %w", err)
	}
	if len(bc) != len(cc) {
		return fmt.Errorf("%s: base has %d cells, change %d", set, len(bc), len(cc))
	}
	var bs, cs []sample
	for p := -1; p < passes; p++ {
		for i := range bc {
			var b, c sample
			var err error
			if (p+i)%2 == 0 {
				if b, c, err = pair(bc[i], cc[i]); err != nil {
					return fmt.Errorf("%s: %w", set, err)
				}
			} else {
				if c, b, err = pair(cc[i], bc[i]); err != nil {
					return fmt.Errorf("%s: %w", set, err)
				}
			}
			if p >= 0 {
				bs, cs = append(bs, b), append(cs, c)
			}
		}
	}
	report(w, set, bc, bs, cs)
	return nil
}

// pair runs x, then y, of one cell and requires them to agree on the
// cell's event count and simulated time.
func pair(x, y cell) (sx, sy sample, err error) {
	sx, ex, tx, err := timed(x)
	if err != nil {
		return sx, sy, err
	}
	sy, ey, ty, err := timed(y)
	if err != nil {
		return sx, sy, err
	}
	if ex != ey || tx != ty {
		return sx, sy, fmt.Errorf("cell %s: %d events to %d ns on one side, %d events to %d ns on the other", x.name, ex, tx, ey, ty)
	}
	return sx, sy, nil
}

func timed(c cell) (s sample, events uint64, simNs int64, err error) {
	cpu0 := threadCPU()
	t0 := time.Now()
	events, simNs, err = c.run()
	s.wall = time.Since(t0)
	s.cpu = threadCPU() - cpu0
	if err != nil {
		err = fmt.Errorf("cell %s: %w", c.name, err)
	}
	return s, events, simNs, err
}

// threadCPU returns the calling OS thread's user plus system CPU time
// (Linux RUSAGE_THREAD); it reads 0 where that is unsupported.
func threadCPU() time.Duration {
	const rusageThread = 1
	var ru syscall.Rusage
	if syscall.Getrusage(rusageThread, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// report prints, for change against base, the median and quartiles of the
// per-cell-pair ratios of wall and thread-CPU time, the ratio of the
// totals, and each cell's median wall ratio: a set that pools a route-heavy
// cell with a light one can hide a change to either. Below 1 the change is
// faster. Sample i is a pair of cell i mod len(cells).
func report(w io.Writer, set string, cells []cell, base, change []sample) {
	var wall, cpu []float64
	var tb, tc time.Duration
	for i := range base {
		wall = append(wall, float64(change[i].wall)/float64(base[i].wall))
		if base[i].cpu > 0 {
			cpu = append(cpu, float64(change[i].cpu)/float64(base[i].cpu))
		}
		tb += base[i].wall
		tc += change[i].wall
	}
	fmt.Fprintf(w, "%s: %d cell pairs, change/base\n", set, len(base))
	fmt.Fprintf(w, "  wall per cell:       median %.3f (quartiles %.3f-%.3f)\n", quantile(wall, 0.5), quantile(wall, 0.25), quantile(wall, 0.75))
	if len(cpu) > 0 {
		fmt.Fprintf(w, "  thread CPU per cell: median %.3f (quartiles %.3f-%.3f)\n", quantile(cpu, 0.5), quantile(cpu, 0.25), quantile(cpu, 0.75))
	}
	fmt.Fprintf(w, "  total wall:          %.3f (%v base, %v change)\n", float64(tc)/float64(tb),
		tb.Round(time.Millisecond), tc.Round(time.Millisecond))
	fmt.Fprintf(w, "  wall by cell, median of %d pairs each:\n", len(base)/len(cells))
	for c := range cells {
		var ratios []float64
		for i := c; i < len(wall); i += len(cells) {
			ratios = append(ratios, wall[i])
		}
		fmt.Fprintf(w, "    %-26s %.3f\n", cells[c].name, quantile(ratios, 0.5))
	}
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
