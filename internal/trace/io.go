package trace

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// workload is what a workload file holds: one trace or one dependency graph
// in the library's binary format, a form tag and then the gob value. One
// writer and one validating reader serve both.
type workload interface{ Trace | Graph }

// validator is a pointer to a workload, which checks itself.
type validator[W workload] interface {
	*W
	Validate() error
}

// formTag starts the line ahead of a workload file's gob value; the form's
// name ("trace" or "graph", five bytes either way) and a newline end it.
const formTag = "dragonfly-workload "

// formOf names the form of W: "trace" or "graph".
func formOf[W workload]() string {
	if _, ok := any(new(W)).(*Trace); ok {
		return "trace"
	}
	return "graph"
}

// Write serializes a trace or a graph in the library's binary format.
func Write[W workload](w io.Writer, v *W) error {
	if _, err := io.WriteString(w, formTag+formOf[W]()+"\n"); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(v)
}

// Read deserializes a trace (Read[Trace]) or a graph (Read[Graph]) written
// by Write and validates it. A file of the other form is an error that
// names the form it holds.
func Read[W workload, P validator[W]](r io.Reader) (*W, error) {
	tag := make([]byte, len(formTag)+len("trace\n"))
	if _, err := io.ReadFull(r, tag); err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, fmt.Errorf("trace: read form tag: %w", err)
	}
	if string(tag[:len(formTag)]) != formTag || tag[len(tag)-1] != '\n' {
		return nil, fmt.Errorf("trace: not a workload file (no form tag)")
	}
	switch held, want := string(tag[len(formTag):len(tag)-1]), formOf[W](); {
	case held != "trace" && held != "graph":
		return nil, fmt.Errorf("trace: unknown workload form %q", held)
	case held != want:
		return nil, fmt.Errorf("trace: the file holds a %s, not a %s", held, want)
	}
	v := new(W)
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if err := P(v).Validate(); err != nil {
		return nil, err
	}
	return v, nil
}

// WriteFile writes a trace or a graph to a file.
func WriteFile[W workload](path string, v *W) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := Write(bw, v); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a trace (ReadFile[Trace]) or a graph (ReadFile[Graph])
// from a file and validates it.
func ReadFile[W workload, P validator[W]](path string) (*W, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read[W, P](bufio.NewReader(f))
}

// Summary is the JSON-friendly digest of a trace used by cmd/dftrace.
type Summary struct {
	App            string    `json:"app"`
	Ranks          int       `json:"ranks"`
	Phases         int       `json:"phases"`
	TotalSendBytes int64     `json:"total_send_bytes"`
	AvgLoadPerRank float64   `json:"avg_load_per_rank_bytes"`
	PhaseLoads     []float64 `json:"phase_loads_bytes_per_rank"`
	// Graph digests the trace's lowered dependency graph — the IR the
	// executor actually runs.
	Graph GraphSummary `json:"graph"`
}

// GraphSummary is the JSON-friendly digest of a dependency graph: structural
// counts plus the byte-weighted critical path, which bounds how much the
// workload can pipeline.
type GraphSummary struct {
	App               string `json:"app"`
	Ranks             int    `json:"ranks"`
	Nodes             int    `json:"nodes"`
	Edges             int    `json:"edges"`
	TotalSendBytes    int64  `json:"total_send_bytes"`
	CriticalPathBytes int64  `json:"critical_path_bytes"`
	MaxFanOut         int    `json:"max_fanout"`
}

// Summarize computes a trace's digest.
func Summarize(t *Trace) Summary {
	return Summary{
		App:            t.App,
		Ranks:          t.NumRanks(),
		Phases:         t.NumPhases(),
		TotalSendBytes: t.TotalSendBytes(),
		AvgLoadPerRank: t.AvgLoadPerRank(),
		PhaseLoads:     t.PhaseLoads(),
		Graph:          SummarizeGraph(t.Graph()),
	}
}

// SummarizeGraph computes a graph's digest.
func SummarizeGraph(g *Graph) GraphSummary {
	return GraphSummary{
		App:               g.App,
		Ranks:             g.NumRanks(),
		Nodes:             g.NumNodes(),
		Edges:             g.NumEdges(),
		TotalSendBytes:    g.TotalSendBytes(),
		CriticalPathBytes: g.CriticalPathBytes(),
		MaxFanOut:         g.MaxFanOut(),
	}
}

// WriteSummaryJSON writes a trace's or a graph's digest (Summarize,
// SummarizeGraph) as indented JSON.
func WriteSummaryJSON[S Summary | GraphSummary](w io.Writer, s S) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
