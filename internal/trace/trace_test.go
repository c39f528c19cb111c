package trace

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
	"testing/quick"
)

func TestCRShape(t *testing.T) {
	tr, err := CR(DefaultCR())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRanks() != 1000 {
		t.Fatalf("ranks = %d, want 1000", tr.NumRanks())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1000 ranks -> 10 hypercube stages.
	if got := tr.NumPhases(); got != 10 {
		t.Fatalf("phases = %d, want 10", got)
	}
	// Constant ~190 KB load: every send is exactly the configured size.
	for rank, ops := range tr.Ranks {
		for _, op := range ops {
			if op.Kind == OpISend && op.Bytes != 190*KB {
				t.Fatalf("rank %d sends %d bytes, want %d", rank, op.Bytes, 190*KB)
			}
		}
	}
	// Paper: relatively constant message load over time.
	loads := tr.PhaseLoads()
	for i := 1; i < len(loads); i++ {
		if loads[i] < loads[0]*0.5 || loads[i] > loads[0]*2 {
			t.Fatalf("CR phase load varies too much: %v", loads)
		}
	}
}

func TestCRPartnersArePowerOfTwoOffsets(t *testing.T) {
	tr, _ := CR(CRConfig{Ranks: 64, MessageBytes: KB})
	for rank, ops := range tr.Ranks {
		for _, op := range ops {
			if op.Kind != OpISend {
				continue
			}
			off := int(op.Peer) ^ rank
			if off&(off-1) != 0 || off == 0 {
				t.Fatalf("rank %d talks to %d: offset %d not a power of two", rank, op.Peer, off)
			}
		}
	}
}

func TestFBShape(t *testing.T) {
	tr, err := FB(DefaultFB())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRanks() != 1000 {
		t.Fatalf("ranks = %d, want 1000", tr.NumRanks())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Message sizes fluctuate within the published envelope for the face
	// exchange; far partners are scaled down below the minimum.
	var lo, hi int64 = 1 << 62, 0
	for _, ops := range tr.Ranks {
		for _, op := range ops {
			if op.Kind != OpISend {
				continue
			}
			if op.Bytes < lo {
				lo = op.Bytes
			}
			if op.Bytes > hi {
				hi = op.Bytes
			}
		}
	}
	if hi > 2560*KB {
		t.Fatalf("FB max message %d exceeds 2560 KB", hi)
	}
	if hi < 1280*KB {
		t.Fatalf("FB max message %d implausibly small for a 2560 KB envelope", hi)
	}
	if lo >= 100*KB {
		t.Fatalf("FB min message %d: far partners should be below 100 KB", lo)
	}
}

func TestFBFaceNeighborsDominate(t *testing.T) {
	cfg := DefaultFB()
	tr, _ := FB(cfg)
	// Fig. 2(b): near-diagonal bands dominate. Face-neighbor traffic must
	// carry most of the bytes.
	g := grid3{cfg.X, cfg.Y, cfg.Z}
	var faceBytes, otherBytes int64
	for rank, ops := range tr.Ranks {
		faces := map[int32]bool{}
		for _, nb := range g.faceNeighbors(rank, true) {
			faces[int32(nb)] = true
		}
		for _, op := range ops {
			if op.Kind != OpISend {
				continue
			}
			if faces[op.Peer] {
				faceBytes += op.Bytes
			} else {
				otherBytes += op.Bytes
			}
		}
	}
	if faceBytes < 5*otherBytes {
		t.Fatalf("face bytes %d vs other %d: neighbor exchange should dominate", faceBytes, otherBytes)
	}
}

func TestAMGShape(t *testing.T) {
	tr, err := AMG(DefaultAMG())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRanks() != 1728 {
		t.Fatalf("ranks = %d, want 1728", tr.NumRanks())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// V-cycles: 6 down + 5 up phases per cycle, 3 cycles.
	if got := tr.NumPhases(); got != 3*(6+5) {
		t.Fatalf("phases = %d, want 33", got)
	}
	// Per-rank load surges peak near the configured 75 KB (interior ranks
	// with 6 neighbors send 6 x PeakBytes/6 in the finest phase).
	loads := tr.PhaseLoads()
	peak := loads[0]
	for _, l := range loads {
		if l > peak {
			peak = l
		}
	}
	if peak > 75*KB || peak < 40*KB {
		t.Fatalf("AMG peak per-rank phase load = %v, want near 75 KB", peak)
	}
	// Much lighter than CR/FB (the paper's comparison point).
	cr, _ := CR(DefaultCR())
	if tr.AvgLoadPerRank() > cr.AvgLoadPerRank() {
		t.Fatalf("AMG load %v should be below CR load %v",
			tr.AvgLoadPerRank(), cr.AvgLoadPerRank())
	}
}

func TestAMGBoundaryRanksHaveFewerNeighbors(t *testing.T) {
	cfg := AMGConfig{X: 4, Y: 4, Z: 4, Cycles: 1, Levels: 1, PeakBytes: KB}
	tr, _ := AMG(cfg)
	// Corner rank 0 has 3 face neighbors; interior rank has 6.
	countSends := func(rank int) int {
		n := 0
		for _, op := range tr.Ranks[rank] {
			if op.Kind == OpISend {
				n++
			}
		}
		return n
	}
	if got := countSends(0); got != 3 {
		t.Fatalf("corner rank sends to %d peers, want 3", got)
	}
	interior := grid3{4, 4, 4}.rank(1, 2, 1)
	if got := countSends(interior); got != 6 {
		t.Fatalf("interior rank sends to %d peers, want 6", got)
	}
}

func TestAMGSurgeProfile(t *testing.T) {
	tr, _ := AMG(DefaultAMG())
	loads := tr.PhaseLoads()
	// Each V-cycle starts at the peak (finest level): phases 0, 11, 22.
	for _, p := range []int{0, 11, 22} {
		if loads[p] <= loads[p+3] {
			t.Fatalf("phase %d load %v not a surge over coarser phase %v", p, loads[p], loads[p+3])
		}
	}
}

func TestMatrixAggregation(t *testing.T) {
	tr, _ := CR(CRConfig{Ranks: 8, MessageBytes: 100})
	m := tr.Matrix(4)
	var total float64
	for _, row := range m {
		for _, v := range row {
			total += v
		}
	}
	if int64(total) != tr.TotalSendBytes() {
		t.Fatalf("matrix total %v != trace total %d", total, tr.TotalSendBytes())
	}
	// Diagonal-adjacent bins dominate for offset-1 stages.
	if m[0][0] == 0 {
		t.Fatal("no near-diagonal traffic in CR matrix")
	}
}

func TestMatrixBinsClamped(t *testing.T) {
	tr, _ := CR(CRConfig{Ranks: 4, MessageBytes: 10})
	m := tr.Matrix(100)
	if len(m) != 4 {
		t.Fatalf("matrix bins = %d, want clamped to 4", len(m))
	}
}

func TestGobRoundTrip(t *testing.T) {
	orig, _ := FB(FBConfig{X: 3, Y: 3, Z: 3, Iterations: 2, MinBytes: 10, MaxBytes: 100, FarPartners: 1, FarFraction: 0.5, Seed: 3})
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read[Trace](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != orig.App || got.NumRanks() != orig.NumRanks() {
		t.Fatalf("round trip mismatch: %s/%d vs %s/%d", got.App, got.NumRanks(), orig.App, orig.NumRanks())
	}
	if got.TotalSendBytes() != orig.TotalSendBytes() {
		t.Fatal("round trip changed payload bytes")
	}
}

// TestReadNamesTheFormItHolds: each form reads back as itself, and a trace
// file read as a graph, or a graph file read as a trace, is refused with an
// error naming what the file holds. A gob value without the form tag is
// not a workload file.
func TestReadNamesTheFormItHolds(t *testing.T) {
	tr, err := CR(CRConfig{Ranks: 8, MessageBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	var trFile, graphFile, untagged bytes.Buffer
	if err := Write(&trFile, tr); err != nil {
		t.Fatal(err)
	}
	if err := Write(&graphFile, tr.Graph()); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&untagged).Encode(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := Read[Trace](bytes.NewReader(trFile.Bytes())); err != nil {
		t.Errorf("trace file as a trace: %v", err)
	}
	if _, err := Read[Graph](bytes.NewReader(graphFile.Bytes())); err != nil {
		t.Errorf("graph file as a graph: %v", err)
	}
	for _, tc := range []struct {
		name string
		read func() error
		want string
	}{
		{"trace file as a graph", func() error { _, err := Read[Graph](bytes.NewReader(trFile.Bytes())); return err }, "holds a trace, not a graph"},
		{"graph file as a trace", func() error { _, err := Read[Trace](bytes.NewReader(graphFile.Bytes())); return err }, "holds a graph, not a trace"},
		{"untagged gob", func() error { _, err := Read[Trace](&untagged); return err }, "no form tag"},
		{"empty file", func() error { _, err := Read[Graph](strings.NewReader("")); return err }, "no form tag"},
	} {
		if err := tc.read(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one saying %q", tc.name, err, tc.want)
		}
	}
}

func TestReadRejectsCorruptTrace(t *testing.T) {
	bad := &Trace{App: "X", Ranks: [][]Op{
		{{Kind: OpISend, Peer: 1, Bytes: 10, Tag: 0}, {Kind: OpWaitAll}},
		{{Kind: OpWaitAll}}, // missing the matching receive
	}}
	var buf bytes.Buffer
	if err := Write(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Read[Trace](&buf); err == nil {
		t.Fatal("Read accepted an unmatched trace")
	}
}

func TestValidateCatchesDefects(t *testing.T) {
	cases := []struct {
		name string
		tr   *Trace
	}{
		{"no trailing fence", &Trace{Ranks: [][]Op{{{Kind: OpISend, Peer: 1, Bytes: 1}}}}},
		{"peer out of range", &Trace{Ranks: [][]Op{
			{{Kind: OpISend, Peer: 9, Bytes: 1}, {Kind: OpWaitAll}}}}},
		{"self send", &Trace{Ranks: [][]Op{
			{{Kind: OpISend, Peer: 0, Bytes: 1}, {Kind: OpWaitAll}}}}},
		{"zero bytes", &Trace{Ranks: [][]Op{
			{{Kind: OpISend, Peer: 1, Bytes: 0}, {Kind: OpWaitAll}},
			{{Kind: OpIRecv, Peer: 0, Bytes: 0}, {Kind: OpWaitAll}}}}},
	}
	for _, c := range cases {
		if err := c.tr.Validate(); err == nil {
			t.Errorf("%s: Validate passed", c.name)
		}
	}
}

func TestSummarize(t *testing.T) {
	tr, _ := AMG(AMGConfig{X: 2, Y: 2, Z: 2, Cycles: 1, Levels: 2, PeakBytes: 1000})
	s := Summarize(tr)
	if s.App != "AMG" || s.Ranks != 8 || s.Phases != 3 {
		t.Fatalf("summary = %+v", s)
	}
	var buf bytes.Buffer
	if err := WriteSummaryJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"app": "AMG"`)) {
		t.Fatalf("JSON summary missing app field: %s", buf.String())
	}
}

func TestGeneratorsRejectBadConfigs(t *testing.T) {
	if _, err := CR(CRConfig{Ranks: 1, MessageBytes: 10}); err == nil {
		t.Error("CR accepted 1 rank")
	}
	if _, err := FB(FBConfig{X: 1, Y: 1, Z: 1, Iterations: 1, MinBytes: 1, MaxBytes: 2}); err == nil {
		t.Error("FB accepted single-rank decomposition")
	}
	if _, err := FB(FBConfig{X: 2, Y: 2, Z: 2, Iterations: 1, MinBytes: 10, MaxBytes: 5}); err == nil {
		t.Error("FB accepted inverted size range")
	}
	if _, err := AMG(AMGConfig{X: 2, Y: 2, Z: 2, Cycles: 0, Levels: 1, PeakBytes: 1}); err == nil {
		t.Error("AMG accepted zero cycles")
	}
}

func TestFBDeterministicBySeed(t *testing.T) {
	cfg := FBConfig{X: 3, Y: 3, Z: 3, Iterations: 2, MinBytes: 100, MaxBytes: 1000, FarPartners: 1, FarFraction: 0.2, Seed: 9}
	a, _ := FB(cfg)
	b, _ := FB(cfg)
	if a.TotalSendBytes() != b.TotalSendBytes() {
		t.Fatal("same seed produced different FB traces")
	}
	cfg.Seed = 10
	c, _ := FB(cfg)
	if a.TotalSendBytes() == c.TotalSendBytes() {
		t.Fatal("different seeds produced identical FB traces")
	}
}

// Property: all generated traces validate, for a range of shapes.
func TestGeneratedTracesAlwaysValidate(t *testing.T) {
	f := func(kind uint8, d1, d2, d3 uint8, seed int64) bool {
		x, y, z := 2+int(d1)%3, 2+int(d2)%3, 2+int(d3)%3
		var tr *Trace
		var err error
		switch kind % 3 {
		case 0:
			tr, err = CR(CRConfig{Ranks: x * y * z, MessageBytes: 100})
		case 1:
			tr, err = FB(FBConfig{X: x, Y: y, Z: z, Iterations: 2, MinBytes: 10,
				MaxBytes: 1000, FarPartners: 1, FarFraction: 0.3, Seed: seed})
		default:
			tr, err = AMG(AMGConfig{X: x, Y: y, Z: z, Cycles: 2, Levels: 3, PeakBytes: 500})
		}
		if err != nil {
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGrid3Coords(t *testing.T) {
	g := grid3{3, 4, 5}
	for r := 0; r < 60; r++ {
		x, y, z := g.coords(r)
		if g.rank(x, y, z) != r {
			t.Fatalf("coords round trip failed at %d", r)
		}
	}
}
