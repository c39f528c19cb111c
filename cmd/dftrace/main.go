// Command dftrace generates, inspects, and converts application workloads:
// the flat communication traces standing in for the paper's DUMPI traces of
// the CR, FB, and AMG miniapps, and the dependency-graph collective/storage
// workloads (RING, TREE, MOE, HALO2D, HALO3D, CKPT). Summaries are
// graph-aware for both: a flat trace's digest includes its lowered
// dependency graph (node/edge counts, critical-path bytes, max fan-out).
//
// Examples:
//
//	dftrace -app CR -summary
//	dftrace -app FB -out fb.trace
//	dftrace -in fb.trace -summary
//	dftrace -app AMG -matrix 12
//	dftrace -app RING -summary
//	dftrace -app MOE -out moe.graph && dftrace -graph-in moe.graph -matrix 8
package main

import (
	"flag"
	"fmt"
	"os"

	"dragonfly"
	"dragonfly/internal/cliutil"
	"dragonfly/internal/trace"
)

func main() {
	var (
		app     = flag.String("app", "", "generate a workload at the paper's size: "+cliutil.AppChoices())
		in      = flag.String("in", "", "read a binary trace file instead of generating")
		textIn  = flag.String("text-in", "", "read a text-format (DUMPI-flavored) trace file")
		graphIn = flag.String("graph-in", "", "read a binary dependency-graph file instead of generating")
		out     = flag.String("out", "", "write the workload to this file (binary format; graph apps write graph files)")
		textOut = flag.String("text-out", "", "write the trace to this file (text format; flat traces only)")
		summary = flag.Bool("summary", false, "print the JSON digest (flat traces include their lowered graph's stats)")
		matrix  = flag.Int("matrix", 0, "print the communication matrix binned to NxN (MB per bin)")
	)
	flag.Parse()

	if *matrix < 0 {
		cliutil.Usagef("dftrace", "matrix=%d: want a non-negative bin count", *matrix)
	}
	var tr *dragonfly.Trace
	var gr *dragonfly.Graph
	var err error
	switch {
	case *in != "":
		tr, err = trace.ReadFile[trace.Trace](*in)
	case *textIn != "":
		tr, err = readText(*textIn)
	case *graphIn != "":
		gr, err = trace.ReadFile[trace.Graph](*graphIn)
	case *app != "":
		tr, gr, err = dragonfly.BuildApp(*app, dragonfly.AppPaper)
		if err != nil {
			cliutil.Usagef("dftrace", "%v", err)
		}
	default:
		cliutil.Usagef("dftrace", "specify -app to generate, or -in/-text-in/-graph-in to read a workload")
	}
	if err != nil {
		fatalf("%v", err)
	}

	if gr != nil {
		runGraph(gr, *out, *textOut, *summary, *matrix)
		return
	}
	if *out != "" {
		if err := trace.WriteFile(*out, tr); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "dftrace: wrote %s (%d ranks, %d phases)\n", *out, tr.NumRanks(), tr.NumPhases())
	}
	if *textOut != "" {
		if err := writeText(*textOut, tr); err != nil {
			fatalf("write %s: %v", *textOut, err)
		}
		fmt.Fprintf(os.Stderr, "dftrace: wrote %s (text format)\n", *textOut)
	}
	if *summary || (*out == "" && *textOut == "" && *matrix == 0) {
		if err := trace.WriteSummaryJSON(os.Stdout, trace.Summarize(tr)); err != nil {
			fatalf("%v", err)
		}
	}
	if *matrix > 0 {
		printMatrix(tr.Matrix(*matrix))
	}
}

// runGraph handles the dependency-graph output modes.
func runGraph(g *dragonfly.Graph, out, textOut string, summary bool, matrix int) {
	if textOut != "" {
		fatalf("-text-out applies to flat traces only (graphs have no DUMPI text form)")
	}
	if out != "" {
		if err := trace.WriteFile(out, g); err != nil {
			fatalf("write %s: %v", out, err)
		}
		fmt.Fprintf(os.Stderr, "dftrace: wrote %s (%d ranks, %d graph nodes)\n", out, g.NumRanks(), g.NumNodes())
	}
	if summary || (out == "" && matrix == 0) {
		if err := trace.WriteSummaryJSON(os.Stdout, trace.SummarizeGraph(g)); err != nil {
			fatalf("%v", err)
		}
	}
	if matrix > 0 {
		printMatrix(g.Matrix(matrix))
	}
}

func printMatrix(m [][]float64) {
	const MB = 1024 * 1024
	fmt.Printf("communication matrix (%dx%d bins, MB per bin)\n", len(m), len(m))
	for _, row := range m {
		for j, v := range row {
			if j > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%7.2f", v/MB)
		}
		fmt.Println()
	}
}

func readText(path string) (*dragonfly.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ParseText(f)
}

func writeText(path string, tr *dragonfly.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteText(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dftrace: "+format+"\n", args...)
	os.Exit(1)
}
