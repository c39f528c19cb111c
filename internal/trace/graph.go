// Dependency-graph workload IR — the GOAL-like canonical representation of
// an application's communication (cf. ATLAHS, arXiv 2505.08936). Where a
// flat Trace is an ordered op list per rank punctuated by WaitAll fences, a
// Graph is a DAG per rank: send, receive, and compute nodes with explicit
// dependency edges. Cross-rank synchronization is implicit in message
// matching (a receive completes when the matching send's payload arrives),
// so the IR can express pipelined structures — a ring all-reduce step that
// depends only on the previous step's receive, not on a global fence — that
// flat op lists cannot.
//
// Flat traces lower into the IR (see Trace.Graph): a WaitAll fence becomes
// a zero-delay compute node depending on every operation posted since the
// previous fence. The replay engine executes only graphs; lowering is what
// keeps the three paper miniapps byte-identical under the graph executor
// (pinned by the differential digests in internal/topotest/testdata/).
package trace

import (
	"fmt"

	"dragonfly/internal/des"
	"dragonfly/internal/recycle"
)

// NodeKind is the kind of one graph node.
type NodeKind uint8

const (
	// NodeSend posts a nonblocking send of Bytes to Peer; it completes when
	// the last byte has been injected at the NIC (eager-send semantics,
	// matching the flat replayer).
	NodeSend NodeKind = iota
	// NodeRecv posts a nonblocking receive from Peer; it completes when the
	// matching message has fully arrived. Arrivals match posted receives
	// first-posted-first-matched per (peer, tag), MPI-like.
	NodeRecv
	// NodeCompute models local work: it completes Delay after every
	// dependency has completed. Delay zero is a pure join (the lowered form
	// of a WaitAll fence) and consumes no simulated time and no DES events.
	NodeCompute
)

func (k NodeKind) String() string {
	switch k {
	case NodeSend:
		return "send"
	case NodeRecv:
		return "recv"
	case NodeCompute:
		return "compute"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// GraphNode is one node of a rank's dependency DAG. Peer, Bytes, and Tag are
// meaningful for sends and receives; Delay for compute nodes. Deps lists the
// same-rank nodes (by index, each strictly smaller than this node's own
// index) that must complete before this node executes.
type GraphNode struct {
	Kind  NodeKind
	Peer  int32
	Bytes int64
	Tag   int32
	Delay des.Time
	Deps  []int32
}

// Graph is the dependency-graph form of one application workload. Its
// content digest is computed once, on first use, and executors keep state
// built from it between runs (ReplayPool), so a graph must not change after
// its first Digest call or replay.
type Graph struct {
	App   string
	Ranks [][]GraphNode // Ranks[i] is rank i's DAG in topological (index) order

	digest  memo[uint64]
	replays recycle.Pool
}

// ReplayPool holds executor state that the replay engine built for this
// graph and handed back after a run, for the graph's next replay to take
// (see package workload). Like the digest memo it lives on the graph, not
// in a process-wide map keyed by pointer, so dropping the graph drops it.
func (g *Graph) ReplayPool() *recycle.Pool { return &g.replays }

// NumRanks returns the rank count.
func (g *Graph) NumRanks() int { return len(g.Ranks) }

// NumNodes returns the total node count across ranks.
func (g *Graph) NumNodes() int {
	n := 0
	for _, nodes := range g.Ranks {
		n += len(nodes)
	}
	return n
}

// NumEdges returns the total dependency-edge count across ranks (message-
// matching edges between ranks are implicit and not counted).
func (g *Graph) NumEdges() int {
	n := 0
	for _, nodes := range g.Ranks {
		for i := range nodes {
			n += len(nodes[i].Deps)
		}
	}
	return n
}

// MaxFanOut returns the largest dependency out-degree of any node — how many
// same-rank nodes hang off one completion. Lowered fences produce the
// characteristic spike (every op of the next phase depends on the join).
func (g *Graph) MaxFanOut() int {
	max := 0
	for _, nodes := range g.Ranks {
		out := make([]int, len(nodes))
		for i := range nodes {
			for _, d := range nodes[i].Deps {
				if int(d) >= 0 && int(d) < len(out) {
					out[d]++
				}
			}
		}
		for _, o := range out {
			if o > max {
				max = o
			}
		}
	}
	return max
}

// TotalSendBytes sums every send payload across ranks.
func (g *Graph) TotalSendBytes() int64 {
	var total int64
	for _, nodes := range g.Ranks {
		for i := range nodes {
			if nodes[i].Kind == NodeSend {
				total += nodes[i].Bytes
			}
		}
	}
	return total
}

// Digest returns a 64-bit FNV-1a content digest of the graph: the app name,
// the rank count, and every rank's node list (kind, peer, bytes, tag, delay,
// dependency edges). Two graphs share a digest exactly when they replay
// identically, which is what lets the farm's content-addressed cache key a
// graph workload by its structure instead of its label.
func (g *Graph) Digest() uint64 { return g.digest.get(g.contentDigest) }

func (g *Graph) contentDigest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	w8 := func(b byte) {
		h = (h ^ uint64(b)) * prime64
	}
	w64 := func(v uint64) {
		for i := 0; i < 64; i += 8 {
			w8(byte(v >> i))
		}
	}
	for i := 0; i < len(g.App); i++ {
		w8(g.App[i])
	}
	w64(uint64(len(g.Ranks)))
	for _, nodes := range g.Ranks {
		w64(uint64(len(nodes)))
		for i := range nodes {
			n := &nodes[i]
			w8(byte(n.Kind))
			w64(uint64(uint32(n.Peer)))
			w64(uint64(n.Bytes))
			w64(uint64(uint32(n.Tag)))
			w64(uint64(n.Delay))
			w64(uint64(len(n.Deps)))
			for _, d := range n.Deps {
				w64(uint64(uint32(d)))
			}
		}
	}
	return h
}

// Validate checks the structural invariants the graph executor relies on:
// dependency edges pointing strictly backwards within the rank (which makes
// every rank list a topological order, so the graph is acyclic by
// construction), peers in range, positive transfer sizes, non-negative
// compute delays, and global send/receive matching.
func (g *Graph) Validate() error {
	n := int32(g.NumRanks())
	balance := map[pairKey]int{}
	for rank, nodes := range g.Ranks {
		for i := range nodes {
			node := &nodes[i]
			seen := int32(-1)
			for _, d := range node.Deps {
				if d < 0 || int(d) >= i {
					return fmt.Errorf("trace: graph rank %d node %d: dep %d not strictly earlier", rank, i, d)
				}
				if d <= seen {
					return fmt.Errorf("trace: graph rank %d node %d: deps not strictly ascending", rank, i)
				}
				seen = d
			}
			switch node.Kind {
			case NodeSend, NodeRecv:
				if node.Peer < 0 || node.Peer >= n {
					return fmt.Errorf("trace: graph rank %d node %d: peer %d out of range", rank, i, node.Peer)
				}
				if node.Peer == int32(rank) {
					return fmt.Errorf("trace: graph rank %d node %d: self-communication", rank, i)
				}
				if node.Bytes <= 0 {
					return fmt.Errorf("trace: graph rank %d node %d: non-positive size %d", rank, i, node.Bytes)
				}
				if node.Kind == NodeSend {
					balance[pairKey{int32(rank), node.Peer, node.Bytes, node.Tag}]++
				} else {
					balance[pairKey{node.Peer, int32(rank), node.Bytes, node.Tag}]--
				}
			case NodeCompute:
				if node.Delay < 0 {
					return fmt.Errorf("trace: graph rank %d node %d: negative delay %d", rank, i, node.Delay)
				}
			default:
				return fmt.Errorf("trace: graph rank %d node %d: unknown kind %v", rank, i, node.Kind)
			}
		}
	}
	for k, v := range balance {
		if v != 0 {
			return fmt.Errorf("trace: graph unmatched transfer %d->%d %dB tag %d (balance %+d)",
				k.src, k.dst, k.bytes, k.tag, v)
		}
	}
	return nil
}

// Matrix aggregates send bytes into a bins x bins communication matrix.
// Entry [i][j] is the bytes sent from ranks in row-bin i to ranks in
// column-bin j.
func (g *Graph) Matrix(bins int) [][]float64 {
	if bins < 1 {
		panic("trace: Matrix needs >= 1 bin")
	}
	n := g.NumRanks()
	if bins > n {
		bins = n
	}
	m := make([][]float64, bins)
	for i := range m {
		m[i] = make([]float64, bins)
	}
	for rank, nodes := range g.Ranks {
		ri := rank * bins / n
		for i := range nodes {
			if nodes[i].Kind == NodeSend {
				cj := int(nodes[i].Peer) * bins / n
				m[ri][cj] += float64(nodes[i].Bytes)
			}
		}
	}
	return m
}

// CriticalPathBytes returns the heaviest dependency chain through the whole
// graph, weighing each send node by its payload: the bytes that must cross
// the wire serially no matter how much the fabric parallelizes everything
// else. Cross-rank edges (each send to the receive it matches, first-posted-
// first-matched per directed pair and tag) participate, so a ring
// all-reduce shows its 2(N-1) chunk relay — 1/N of the traffic it moves —
// while a serial tree shows every hop's full vector. The graph must be
// valid; unmatched traffic is skipped.
func (g *Graph) CriticalPathBytes() int64 {
	// Global numbering: node (rank, i) -> offset[rank]+i.
	offset := make([]int, len(g.Ranks)+1)
	for r, nodes := range g.Ranks {
		offset[r+1] = offset[r] + len(nodes)
	}
	total := offset[len(g.Ranks)]
	indeg := make([]int32, total)
	matchRecv := make([]int32, total) // send gid -> matched recv gid, -1 if none
	for i := range matchRecv {
		matchRecv[i] = -1
	}

	// FIFO-match sends to receives per (src, dst, tag).
	type mkey struct {
		src, dst, tag int32
	}
	sends := map[mkey][]int32{}
	for r, nodes := range g.Ranks {
		for i := range nodes {
			gid := int32(offset[r] + i)
			indeg[gid] = int32(len(nodes[i].Deps))
			if nodes[i].Kind == NodeSend {
				k := mkey{int32(r), nodes[i].Peer, nodes[i].Tag}
				sends[k] = append(sends[k], gid)
			}
		}
	}
	for r, nodes := range g.Ranks {
		for i := range nodes {
			if nodes[i].Kind != NodeRecv {
				continue
			}
			k := mkey{nodes[i].Peer, int32(r), nodes[i].Tag}
			if q := sends[k]; len(q) > 0 {
				gid := int32(offset[r] + i)
				matchRecv[q[0]] = gid
				sends[k] = q[1:]
				indeg[gid]++
			}
		}
	}

	// Kahn's algorithm with a longest-path DP over bytes.
	dist := make([]int64, total)
	queue := make([]int32, 0, total)
	for gid := 0; gid < total; gid++ {
		if indeg[gid] == 0 {
			queue = append(queue, int32(gid))
		}
	}
	rankOf := func(gid int32) (int, int) {
		lo, hi := 0, len(g.Ranks)
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if int(gid) >= offset[mid] {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo, int(gid) - offset[lo]
	}
	var max int64
	relax := func(to int32, d int64) {
		if d > dist[to] {
			dist[to] = d
		}
		indeg[to]--
		if indeg[to] == 0 {
			queue = append(queue, to)
		}
	}
	// Successor edges are recovered by scanning each rank's Deps once.
	succ := make([][]int32, total)
	for r, nodes := range g.Ranks {
		for i := range nodes {
			gid := int32(offset[r] + i)
			for _, d := range nodes[i].Deps {
				dep := int32(offset[r] + int(d))
				succ[dep] = append(succ[dep], gid)
			}
		}
	}
	for len(queue) > 0 {
		gid := queue[0]
		queue = queue[1:]
		r, i := rankOf(gid)
		node := &g.Ranks[r][i]
		d := dist[gid]
		if node.Kind == NodeSend {
			d += node.Bytes
		}
		if d > max {
			max = d
		}
		for _, s := range succ[gid] {
			relax(s, d)
		}
		if node.Kind == NodeSend && matchRecv[gid] >= 0 {
			relax(matchRecv[gid], d)
		}
	}
	return max
}

// Graph lowers a flat trace into the dependency-graph IR. Sends and
// receives become nodes depending on the previous fence's join; each
// WaitAll fence becomes a zero-delay compute node depending on every
// operation posted since the previous fence. Executing the lowered graph
// (ready nodes in index order, joins completing inline) reproduces the
// fence-based replayer's behavior byte for byte — the property the
// committed differential digests pin. The result is lowered once per trace
// (repeated runs of one trace — sweeps, the farm, benchmarks — share it) and
// must not be mutated.
func (t *Trace) Graph() *Graph { return t.graph.get(t.lowerGraph) }

func (t *Trace) lowerGraph() *Graph {
	g := &Graph{App: t.App, Ranks: make([][]GraphNode, len(t.Ranks))}
	for rank, ops := range t.Ranks {
		// One backing array serves every Deps slice of the rank: sends and
		// receives of one fence window share a single {prevJoin} cell, each
		// join gets a window-sized segment. Counting pass sizes the arena so
		// lowering costs O(ranks) allocations, not O(ops).
		arena := make([]int32, 0, depsArenaLen(ops))
		nodes := make([]GraphNode, 0, len(ops))
		window := make([]int32, 0, 16) // node ids posted since the previous fence
		prevJoin := int32(-1)
		var joinDep []int32 // shared {prevJoin} slice for the current window
		for _, op := range ops {
			switch op.Kind {
			case OpISend:
				window = append(window, int32(len(nodes)))
				nodes = append(nodes, GraphNode{
					Kind: NodeSend, Peer: op.Peer, Bytes: op.Bytes, Tag: op.Tag, Deps: joinDep,
				})
			case OpIRecv:
				window = append(window, int32(len(nodes)))
				nodes = append(nodes, GraphNode{
					Kind: NodeRecv, Peer: op.Peer, Bytes: op.Bytes, Tag: op.Tag, Deps: joinDep,
				})
			case OpWaitAll:
				var deps []int32
				if len(window) > 0 {
					start := len(arena)
					arena = append(arena, window...)
					deps = arena[start:len(arena):len(arena)]
				} else if prevJoin >= 0 {
					deps = joinDep
				}
				prevJoin = int32(len(nodes))
				nodes = append(nodes, GraphNode{Kind: NodeCompute, Deps: deps})
				start := len(arena)
				arena = append(arena, prevJoin)
				joinDep = arena[start:len(arena):len(arena)]
				window = window[:0]
			}
		}
		g.Ranks[rank] = nodes
	}
	return g
}

// depsArenaLen returns the exact arena size lowerGraph needs for one rank:
// one cell per windowed op (its id in the join's dep list) plus one shared
// {join} cell per fence.
func depsArenaLen(ops []Op) int {
	n := 0
	for _, op := range ops {
		switch op.Kind {
		case OpISend, OpIRecv:
			n++
		case OpWaitAll:
			n++
		}
	}
	return n
}
