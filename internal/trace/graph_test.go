package trace

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dragonfly/internal/des"
)

// handTrace builds a two-rank, two-phase flat trace by hand: an exchange
// each way, a fence, a second exchange, a fence.
func handTrace() *Trace {
	b := newBuilder(2)
	b.exchange(0, 1, 100, 0)
	b.exchange(1, 0, 200, 0)
	b.fence()
	b.exchange(0, 1, 300, 1)
	b.fence()
	return b.build("HAND")
}

func TestLowerGraph(t *testing.T) {
	tr := handTrace()
	g := tr.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.App != "HAND" || g.NumRanks() != 2 {
		t.Fatalf("app %q ranks %d", g.App, g.NumRanks())
	}
	// Rank 0: send(100), recv(200), join, send(300), join.
	want0 := []GraphNode{
		{Kind: NodeSend, Peer: 1, Bytes: 100, Tag: 0},
		{Kind: NodeRecv, Peer: 1, Bytes: 200, Tag: 0},
		{Kind: NodeCompute, Deps: []int32{0, 1}},
		{Kind: NodeSend, Peer: 1, Bytes: 300, Tag: 1, Deps: []int32{2}},
		{Kind: NodeCompute, Deps: []int32{3}},
	}
	if !reflect.DeepEqual(g.Ranks[0], want0) {
		t.Fatalf("rank 0 lowered to %+v, want %+v", g.Ranks[0], want0)
	}
	// Rank 1: recv(100), send(200), join, recv(300), join.
	want1 := []GraphNode{
		{Kind: NodeRecv, Peer: 0, Bytes: 100, Tag: 0},
		{Kind: NodeSend, Peer: 0, Bytes: 200, Tag: 0},
		{Kind: NodeCompute, Deps: []int32{0, 1}},
		{Kind: NodeRecv, Peer: 0, Bytes: 300, Tag: 1, Deps: []int32{2}},
		{Kind: NodeCompute, Deps: []int32{3}},
	}
	if !reflect.DeepEqual(g.Ranks[1], want1) {
		t.Fatalf("rank 1 lowered to %+v, want %+v", g.Ranks[1], want1)
	}
	if g2 := tr.Graph(); g2 != g {
		t.Fatal("lowering not memoized per trace")
	}
}

// TestLowerGraphEmptyWindow checks consecutive fences chain through the
// previous join instead of dangling.
func TestLowerGraphEmptyWindow(t *testing.T) {
	b := newBuilder(2)
	b.exchange(0, 1, 10, 0)
	b.fence()
	b.fence() // empty window
	tr := b.build("X")
	g := tr.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	r0 := g.Ranks[0]
	if len(r0) != 3 || !reflect.DeepEqual(r0[2].Deps, []int32{1}) {
		t.Fatalf("empty-window fence lowered to %+v", r0)
	}
}

func TestLowerMiniappsValid(t *testing.T) {
	cr, _ := CR(CRConfig{Ranks: 16, MessageBytes: KB})
	fb, _ := FB(FBConfig{X: 2, Y: 2, Z: 2, Iterations: 2, MinBytes: KB, MaxBytes: 4 * KB, FarPartners: 1, FarFraction: 0.5, Seed: 3})
	amg, _ := AMG(AMGConfig{X: 2, Y: 2, Z: 2, Cycles: 2, Levels: 2, PeakBytes: 4 * KB})
	for _, tr := range []*Trace{cr, fb, amg} {
		g := tr.Graph()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", tr.App, err)
		}
		// Lowering preserves traffic: the graph's send bytes and matrix
		// equal those summed straight from the flat ops.
		const bins = 4
		n := tr.NumRanks()
		var total int64
		want := make([][]float64, bins)
		for i := range want {
			want[i] = make([]float64, bins)
		}
		for rank, ops := range tr.Ranks {
			for _, op := range ops {
				if op.Kind == OpISend {
					total += op.Bytes
					want[rank*bins/n][int(op.Peer)*bins/n] += float64(op.Bytes)
				}
			}
		}
		if g.TotalSendBytes() != total {
			t.Fatalf("%s: graph %d send bytes, flat ops %d", tr.App, g.TotalSendBytes(), total)
		}
		if !reflect.DeepEqual(g.Matrix(bins), want) {
			t.Fatalf("%s: lowered matrix differs from the flat ops'", tr.App)
		}
	}
}

func TestGraphValidateRejects(t *testing.T) {
	cases := map[string]*Graph{
		"dep-not-earlier": {Ranks: [][]GraphNode{{
			{Kind: NodeCompute, Deps: []int32{0}},
		}}},
		"dep-not-ascending": {Ranks: [][]GraphNode{{
			{Kind: NodeCompute},
			{Kind: NodeCompute},
			{Kind: NodeCompute, Deps: []int32{1, 0}},
		}}},
		"peer-out-of-range": {Ranks: [][]GraphNode{{
			{Kind: NodeSend, Peer: 5, Bytes: 1},
		}}},
		"self-send": {Ranks: [][]GraphNode{{
			{Kind: NodeSend, Peer: 0, Bytes: 1},
		}}},
		"zero-bytes": {Ranks: [][]GraphNode{
			{{Kind: NodeSend, Peer: 1, Bytes: 0}},
			{{Kind: NodeRecv, Peer: 0, Bytes: 0}},
		}},
		"negative-delay": {Ranks: [][]GraphNode{{
			{Kind: NodeCompute, Delay: -1},
		}}},
		"unmatched-send": {Ranks: [][]GraphNode{
			{{Kind: NodeSend, Peer: 1, Bytes: 8}},
			{},
		}},
		"size-mismatch": {Ranks: [][]GraphNode{
			{{Kind: NodeSend, Peer: 1, Bytes: 8}},
			{{Kind: NodeRecv, Peer: 0, Bytes: 9}},
		}},
	}
	for name, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid graph", name)
		}
	}
}

func TestGraphStats(t *testing.T) {
	g := handTrace().Graph()
	if got := g.NumNodes(); got != 10 {
		t.Fatalf("NumNodes = %d, want 10", got)
	}
	// Rank 0: join{0,1} + send{2} + join{3} = 4; rank 1 likewise.
	if got := g.NumEdges(); got != 8 {
		t.Fatalf("NumEdges = %d, want 8", got)
	}
	if got := g.TotalSendBytes(); got != 600 {
		t.Fatalf("TotalSendBytes = %d, want 600", got)
	}
	// Every node's out-degree is 1 here (each op feeds one join, each join
	// one successor op).
	if got := g.MaxFanOut(); got != 1 {
		t.Fatalf("MaxFanOut = %d, want 1", got)
	}
	m := g.Matrix(2)
	if m[0][1] != 400 || m[1][0] != 200 {
		t.Fatalf("Matrix = %v", m)
	}
}

func TestGraphDigest(t *testing.T) {
	g := handTrace().Graph()
	d := g.Digest()
	if d != handTrace().Graph().Digest() {
		t.Fatal("digest not deterministic")
	}
	perturb := []func(*Graph){
		func(g *Graph) { g.App = "OTHER" },
		func(g *Graph) { g.Ranks[0][0].Bytes++ },
		func(g *Graph) { g.Ranks[0][0].Tag++ },
		func(g *Graph) { g.Ranks[0][2].Delay = des.Microsecond },
		func(g *Graph) { g.Ranks[0][3].Deps = []int32{1} },
		func(g *Graph) { g.Ranks[1][0].Kind = NodeSend },
	}
	for i, f := range perturb {
		h := handTrace().lowerGraph()
		f(h)
		if h.Digest() == d {
			t.Errorf("perturbation %d did not move the digest", i)
		}
	}
}

func TestCriticalPathBytes(t *testing.T) {
	// Serial relay: 0 sends 100 to 1, which forwards 200 to 0. The matched
	// cross-rank edge makes the path 100+200.
	relay := &Graph{Ranks: [][]GraphNode{
		{
			{Kind: NodeSend, Peer: 1, Bytes: 100},
			{Kind: NodeRecv, Peer: 1, Bytes: 200, Tag: 1},
		},
		{
			{Kind: NodeRecv, Peer: 0, Bytes: 100},
			{Kind: NodeSend, Peer: 0, Bytes: 200, Tag: 1, Deps: []int32{0}},
		},
	}}
	if err := relay.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := relay.CriticalPathBytes(); got != 300 {
		t.Fatalf("relay critical path = %d, want 300", got)
	}

	// Ring all-reduce: 2(N-1) pipelined chunk hops.
	ring, err := RingAllReduce(RingAllReduceConfig{Ranks: 4, Bytes: 4096, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ring.CriticalPathBytes(), int64(2*3*1024); got != want {
		t.Fatalf("ring critical path = %d, want %d", got, want)
	}

	// Binomial tree: 2*log2(N) full-vector hops.
	tree, err := TreeAllReduce(TreeAllReduceConfig{Ranks: 4, Bytes: 1000, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tree.CriticalPathBytes(), int64(4*1000); got != want {
		t.Fatalf("tree critical path = %d, want %d", got, want)
	}

	// The ring moves N x its critical path in total: perfect bandwidth
	// spreading (every rank's chain runs concurrently).
	if total := ring.TotalSendBytes(); ring.CriticalPathBytes()*4 != total {
		t.Fatalf("ring total %d is not 4x its critical path %d", total, ring.CriticalPathBytes())
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Graph, error)
		ranks int
	}{
		{"ring", func() (*Graph, error) { return RingAllReduce(RingAllReduceConfig{Ranks: 5, Bytes: 10 * KB, Rounds: 2}) }, 5},
		{"tree-pow2", func() (*Graph, error) { return TreeAllReduce(TreeAllReduceConfig{Ranks: 8, Bytes: KB, Rounds: 2}) }, 8},
		{"tree-ragged", func() (*Graph, error) { return TreeAllReduce(TreeAllReduceConfig{Ranks: 7, Bytes: KB, Rounds: 1}) }, 7},
		{"moe", func() (*Graph, error) {
			return MoEAllToAll(MoEAllToAllConfig{Ranks: 6, Bytes: KB, Rounds: 2, Window: 2})
		}, 6},
		{"moe-unwindowed", func() (*Graph, error) { return MoEAllToAll(MoEAllToAllConfig{Ranks: 4, Bytes: KB, Rounds: 1}) }, 4},
		{"halo2d", func() (*Graph, error) { return Halo(HaloConfig{X: 4, Y: 3, Bytes: KB, Rounds: 2}) }, 12},
		{"halo3d", func() (*Graph, error) {
			return Halo(HaloConfig{X: 3, Y: 2, Z: 2, Bytes: KB, Rounds: 2, Delay: des.Microsecond})
		}, 12},
		{"ckpt", func() (*Graph, error) {
			return Checkpoint(CheckpointConfig{Clients: 5, Servers: 2, Bytes: 8 * KB, Rounds: 3, Delay: des.Microsecond})
		}, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if g.NumRanks() != tc.ranks {
				t.Fatalf("ranks = %d, want %d", g.NumRanks(), tc.ranks)
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if g.NumNodes() == 0 || g.TotalSendBytes() == 0 {
				t.Fatalf("degenerate graph: %d nodes, %d bytes", g.NumNodes(), g.TotalSendBytes())
			}
			if cp := g.CriticalPathBytes(); cp <= 0 || cp > g.TotalSendBytes() {
				t.Fatalf("critical path %d outside (0, %d]", cp, g.TotalSendBytes())
			}
		})
	}
}

func TestGraphGeneratorsRejectBadConfigs(t *testing.T) {
	if _, err := RingAllReduce(RingAllReduceConfig{Ranks: 1, Bytes: 1, Rounds: 1}); err == nil {
		t.Error("ring accepted 1 rank")
	}
	if _, err := TreeAllReduce(TreeAllReduceConfig{Ranks: 4, Bytes: 0, Rounds: 1}); err == nil {
		t.Error("tree accepted 0 bytes")
	}
	if _, err := MoEAllToAll(MoEAllToAllConfig{Ranks: 4, Bytes: 1, Rounds: 0}); err == nil {
		t.Error("moe accepted 0 rounds")
	}
	if _, err := Halo(HaloConfig{X: 1, Y: 1, Z: 1, Bytes: 1, Rounds: 1}); err == nil {
		t.Error("halo accepted a 1x1x1 grid")
	}
	if _, err := Checkpoint(CheckpointConfig{Clients: 0, Servers: 1, Bytes: 1, Rounds: 1}); err == nil {
		t.Error("checkpoint accepted 0 clients")
	}
}

func TestDefaultGraphRegistry(t *testing.T) {
	apps := Apps()
	if want := []string{"CR", "FB", "AMG", "RING", "TREE", "MOE", "HALO2D", "HALO3D", "CKPT"}; !reflect.DeepEqual(apps, want) {
		t.Fatalf("Apps() = %v, want %v", apps, want)
	}
	if got := GraphApps(); !reflect.DeepEqual(got, apps[3:]) {
		t.Fatalf("GraphApps() = %v, want %v", got, apps[3:])
	}
	for _, name := range apps {
		tr, g, err := BuildApp(strings.ToLower(name), Mini)
		if err != nil {
			t.Fatalf("BuildApp(%q): %v", name, err)
		}
		ok := tr == nil && g != nil && g.App == name
		if !IsGraphApp(name) {
			ok = g == nil && tr != nil && tr.App == name
		}
		if !ok {
			t.Errorf("BuildApp(%q) built trace %v, graph %v; IsGraphApp %v", name, tr != nil, g != nil, IsGraphApp(name))
		}
	}
	if _, _, err := BuildApp("NOPE", Mini); err == nil || !strings.Contains(err.Error(), "CKPT") {
		t.Errorf("BuildApp accepted an unknown name or did not list the apps: %v", err)
	}
	if _, _, err := BuildApp("CR", numSizes); err == nil {
		t.Error("BuildApp accepted an unknown size")
	}
}

// TestGraphFileRoundTrip writes a RING graph to a file and reads it back
// with its digest intact, and requires the reader to reject a graph file
// that fails Validate.
func TestGraphFileRoundTrip(t *testing.T) {
	_, orig, err := BuildApp("RING", Mini)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ring.graph")
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile[Graph](path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != orig.Digest() {
		t.Fatalf("round trip changed the digest: %#x, want %#x", got.Digest(), orig.Digest())
	}

	bad := &Graph{App: "X", Ranks: [][]GraphNode{
		{{Kind: NodeSend, Peer: 1, Bytes: 10}},
		{}, // missing the matching receive
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted an unmatched send")
	}
	if err := WriteFile(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile[Graph](path); err == nil {
		t.Fatal("ReadFile accepted a graph that fails Validate")
	}
}
