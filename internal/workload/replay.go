// Package workload executes application workloads on the network fabric
// with MPI-like semantics — the role of the trace replay layer of CODES —
// and generates the paper's synthetic background jobs (Sec. IV-C).
//
// The executor is graph-driven: every workload is a dependency-graph IR
// (trace.Graph — send/recv/compute nodes with explicit same-rank dependency
// edges; see ATLAHS's GOAL graphs, arXiv 2505.08936). Flat op-list traces
// lower into the IR on the way in (trace.Trace.Graph), so the three paper
// miniapps replay through the same engine as the collective generators.
//
// Execution semantics: a node becomes ready when every dependency has
// completed; ready nodes execute in ascending node-index order within a
// rank. Sends are eager — the node completes when the last byte is injected
// at the NIC. Receives complete when the matching message has fully
// arrived; arrivals match posted receives first-posted-first-matched per
// (peer, tag), MPI-like. Compute nodes complete Delay after becoming ready;
// zero-delay computes (lowered WaitAll fences) complete inline, consuming
// no DES events and no simulated time. That discipline makes a lowered flat
// trace execute byte-identically to the historical fence-based walker — the
// property pinned by internal/topotest's differential replay digests.
package workload

import (
	"fmt"

	"dragonfly/internal/des"
	"dragonfly/internal/metrics"
	"dragonfly/internal/network"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
)

// Fabric is the transport the replay engine drives. *network.Fabric is the
// production implementation; benchmarks substitute a loopback stub to
// measure the executor's own allocation behavior in isolation.
type Fabric interface {
	Engine() *des.Engine
	NodeCount() int
	// Send queues bytes from src to dst; onInjected fires when the last
	// byte leaves the source NIC, onDelivered when it reaches dst's NIC.
	Send(src, dst topology.NodeID, bytes int64, onInjected, onDelivered func(des.Time))
	// AvgHops returns the mean routers traversed by packets delivered to a
	// node.
	AvgHops(node topology.NodeID) (avg float64, packets int64)
}

// Job binds a workload to machine nodes.
type Job struct {
	Name string
	// Graph is the workload in dependency-graph IR. When nil, Trace is
	// lowered into it (trace.Trace.Graph) at NewReplay.
	Graph *trace.Graph
	// Trace is the flat op-list form; used only when Graph is nil.
	Trace *trace.Trace
	// Nodes maps rank i to Nodes[i]; it must cover every rank.
	Nodes []topology.NodeID
	// MsgScale multiplies every transfer size — the knob of the paper's
	// communication-intensity sensitivity study (Sec. IV-B). Zero means 1.
	MsgScale float64
	// Start is the simulated time the job begins.
	Start des.Time
	// OnComplete, when non-nil, fires once when the job's last rank
	// finishes (batch schedulers use it to release the allocation).
	OnComplete func(des.Time)
}

type recvKey struct {
	src int32
	tag int32
}

// recvState tracks one (peer, tag) matching lane of a rank: a FIFO of
// executed-but-unmatched receive nodes, and the count of arrivals that beat
// any posted receive. At most one side is nonzero.
type recvState struct {
	q       []int32 // posted receive node indices, FIFO from head
	head    int
	surplus int32 // arrivals with no posted receive yet
}

// rankState is one rank's executor state. The adjacency (succOff/succList
// CSR over dependency edges), the pristine in-degrees, and the per-node
// completion callbacks are built once; Reset restores everything else for
// warm reuse.
type rankState struct {
	nodes    []trace.GraphNode
	indeg    []int32 // remaining unmet dependencies, mutated during the run
	indeg0   []int32 // pristine copy for Reset
	succOff  []int32 // CSR row offsets into succList, len(nodes)+1
	succList []int32 // dependents of each node, ascending within a row
	ready    []int32 // min-heap of ready node indices

	// Completion callbacks, prebuilt so the steady state allocates nothing:
	// onInj/onDel for send nodes (handed to Fabric.Send), delayed for
	// compute nodes with Delay > 0 (handed to Engine.At).
	onInj   []func(des.Time)
	onDel   []func(des.Time)
	delayed []func()

	recv      map[recvKey]*recvState
	remaining int      // nodes not yet completed
	finished  des.Time // -1 until the rank completes
}

// Replay drives one job on a fabric.
type Replay struct {
	f       Fabric
	job     Job
	scale   float64
	ranks   []rankState
	done    int
	startCB func()

	// recycle is set when Close hands the replay to its graph's pool; seen
	// is NewReplay's duplicate-node scratch.
	recycle bool
	seen    map[topology.NodeID]bool
}

// NewReplay validates the job and prepares (but does not start) the replay.
// The returned Replay owns prebuilt per-node callbacks and adjacency, so a
// job can be re-run with Reset without further allocation. A replay of the
// same graph that an earlier run closed is taken back from the graph's
// pool and Reset for this job, unless f is a fabric built with
// Params.NoPacketPool, the allocate-fresh reference.
func NewReplay(f Fabric, job Job) (*Replay, error) {
	if job.Graph == nil {
		if job.Trace == nil {
			return nil, fmt.Errorf("workload: job %q has neither graph nor trace", job.Name)
		}
		job.Graph = job.Trace.Graph()
	}
	g := job.Graph
	n := g.NumRanks()
	if n == 0 {
		return nil, fmt.Errorf("workload: job %q has no ranks", job.Name)
	}
	if len(job.Nodes) < n {
		return nil, fmt.Errorf("workload: job %q has %d ranks but %d nodes", job.Name, n, len(job.Nodes))
	}
	recycle := recycles(f)
	var r *Replay
	if recycle {
		r, _ = g.ReplayPool().Get().(*Replay)
	}
	if r == nil {
		r = buildReplay(g)
	}
	r.f, r.job, r.recycle = f, job, recycle
	if err := r.checkNodes(); err != nil {
		r.Close()
		return nil, err
	}
	r.scale = job.MsgScale
	if r.scale <= 0 {
		r.scale = 1
	}
	r.Reset(job.Start)
	return r, nil
}

// recycles reports whether replays on f go back to their graph's pool at
// Close: on every fabric but a *network.Fabric built with
// Params.NoPacketPool.
func recycles(f Fabric) bool {
	nf, ok := f.(*network.Fabric)
	return !ok || !nf.Params().NoPacketPool
}

// buildReplay builds the per-rank state of a graph's replay: everything
// that depends on the graph alone, and so survives from one run of the
// graph to the next.
func buildReplay(g *trace.Graph) *Replay {
	n := g.NumRanks()
	r := &Replay{ranks: make([]rankState, n), seen: make(map[topology.NodeID]bool, n)}
	for rank := range r.ranks {
		r.buildRank(rank, g.Ranks[rank])
	}
	r.startCB = func() {
		for rank := range r.ranks {
			st := &r.ranks[rank]
			if st.remaining == 0 {
				r.finishRank(st)
				continue
			}
			for i := range st.nodes {
				if st.indeg[i] == 0 {
					heapPush(&st.ready, int32(i))
				}
			}
			r.drain(rank)
		}
	}
	return r
}

// checkNodes requires the job to map its ranks to distinct nodes of the
// fabric.
func (r *Replay) checkNodes() error {
	clear(r.seen)
	for _, node := range r.job.Nodes[:len(r.ranks)] {
		if int(node) < 0 || int(node) >= r.f.NodeCount() {
			return fmt.Errorf("workload: job %q node %d out of range", r.job.Name, node)
		}
		if r.seen[node] {
			return fmt.Errorf("workload: job %q maps two ranks to node %d", r.job.Name, node)
		}
		r.seen[node] = true
	}
	return nil
}

// Close hands the replay back to its graph's pool, for the graph's next
// NewReplay to take, and drops its fabric and job: the job's node map
// stays with whoever built it (Nodes returned it, and results keep it), and
// the next run's is not copied into it. Call it once every result has been
// read out, with no event of its run left to fire; the replay must not be
// used after. A replay on a Params.NoPacketPool fabric is left to the
// collector.
func (r *Replay) Close() {
	g := r.job.Graph
	r.f, r.job = nil, Job{}
	if r.recycle {
		g.ReplayPool().Put(r)
	}
}

// buildRank wires one rank: in-degrees, the CSR successor adjacency, and
// the per-node completion callbacks.
func (r *Replay) buildRank(rank int, nodes []trace.GraphNode) {
	st := &r.ranks[rank]
	st.nodes = nodes
	st.indeg = make([]int32, len(nodes))
	st.indeg0 = make([]int32, len(nodes))
	st.succOff = make([]int32, len(nodes)+1)
	st.recv = map[recvKey]*recvState{}
	st.remaining = len(nodes)
	st.finished = -1

	edges := 0
	for i := range nodes {
		d := len(nodes[i].Deps)
		st.indeg0[i] = int32(d)
		edges += d
		for _, dep := range nodes[i].Deps {
			st.succOff[dep+1]++
		}
	}
	copy(st.indeg, st.indeg0)
	for i := 0; i < len(nodes); i++ {
		st.succOff[i+1] += st.succOff[i]
	}
	st.succList = make([]int32, edges)
	fill := make([]int32, len(nodes))
	for i := range nodes {
		for _, dep := range nodes[i].Deps {
			st.succList[st.succOff[dep]+fill[dep]] = int32(i)
			fill[dep]++
		}
	}

	hasSend, hasDelay := false, false
	for i := range nodes {
		switch nodes[i].Kind {
		case trace.NodeSend:
			hasSend = true
		case trace.NodeCompute:
			if nodes[i].Delay > 0 {
				hasDelay = true
			}
		}
	}
	if hasSend {
		st.onInj = make([]func(des.Time), len(nodes))
		st.onDel = make([]func(des.Time), len(nodes))
	}
	if hasDelay {
		st.delayed = make([]func(), len(nodes))
	}
	for i := range nodes {
		node := &nodes[i]
		switch node.Kind {
		case trace.NodeSend:
			rank, idx := rank, int32(i)
			dstRank := int(node.Peer)
			key := recvKey{src: int32(rank), tag: node.Tag}
			st.onInj[i] = func(des.Time) {
				r.complete(rank, idx)
				r.drain(rank)
			}
			st.onDel[i] = func(des.Time) { r.messageArrived(dstRank, key) }
		case trace.NodeCompute:
			if node.Delay > 0 {
				rank, idx := rank, int32(i)
				st.delayed[i] = func() {
					r.complete(rank, idx)
					r.drain(rank)
				}
			}
		}
	}
}

// Start schedules the job's first operations at job.Start.
func (r *Replay) Start() {
	r.f.Engine().At(r.job.Start, r.startCB)
}

// Reset restores the replay to its pre-Start state with a new start time,
// reusing every map entry, queue, and callback — the warm path allocates
// nothing. The fabric's simulated clock only moves forward, so start must
// not precede the engine's current time.
func (r *Replay) Reset(start des.Time) {
	r.job.Start = start
	r.done = 0
	for rank := range r.ranks {
		st := &r.ranks[rank]
		copy(st.indeg, st.indeg0)
		st.ready = st.ready[:0]
		st.remaining = len(st.nodes)
		st.finished = -1
		for _, rs := range st.recv {
			rs.q = rs.q[:0]
			rs.head = 0
			rs.surplus = 0
		}
	}
}

// scaleBytes applies the sensitivity-study message scale.
func (r *Replay) scaleBytes(b int64) int64 {
	if r.scale == 1 {
		return b
	}
	s := int64(float64(b) * r.scale)
	if s < 1 {
		s = 1
	}
	return s
}

// drain executes ready nodes — smallest index first — until the rank has
// none left. Inline completions (surplus-matched receives, zero-delay
// joins) push newly-ready successors into the heap mid-drain, which is how
// a lowered trace walks each fence window in op order.
func (r *Replay) drain(rank int) {
	st := &r.ranks[rank]
	for len(st.ready) > 0 {
		idx := heapPop(&st.ready)
		node := &st.nodes[idx]
		switch node.Kind {
		case trace.NodeSend:
			r.f.Send(
				r.job.Nodes[rank], r.job.Nodes[node.Peer], r.scaleBytes(node.Bytes),
				st.onInj[idx], st.onDel[idx],
			)
		case trace.NodeRecv:
			rs := st.recvFor(recvKey{src: node.Peer, tag: node.Tag})
			if rs.surplus > 0 {
				rs.surplus--
				r.complete(rank, idx)
			} else {
				rs.q = append(rs.q, idx)
			}
		case trace.NodeCompute:
			if node.Delay == 0 {
				r.complete(rank, idx)
			} else {
				eng := r.f.Engine()
				eng.At(eng.Now()+node.Delay, st.delayed[idx])
			}
		default:
			panic(fmt.Sprintf("workload: rank %d node %d: unknown kind %v", rank, idx, node.Kind))
		}
	}
}

// complete marks a node done, readies any successor whose last dependency
// this was, and finishes the rank when nothing remains. Callers outside a
// drain (DES callbacks) must drain afterwards.
func (r *Replay) complete(rank int, idx int32) {
	st := &r.ranks[rank]
	for _, s := range st.succList[st.succOff[idx]:st.succOff[idx+1]] {
		st.indeg[s]--
		if st.indeg[s] == 0 {
			heapPush(&st.ready, s)
		}
	}
	st.remaining--
	if st.remaining == 0 {
		r.finishRank(st)
	}
}

func (st *rankState) recvFor(key recvKey) *recvState {
	rs := st.recv[key]
	if rs == nil {
		rs = &recvState{}
		st.recv[key] = rs
	}
	return rs
}

// messageArrived matches a delivery against the destination rank's posted
// receives: first-posted-first-matched per (source, tag), surplus-buffered
// when the payload beats the post.
func (r *Replay) messageArrived(rank int, key recvKey) {
	st := &r.ranks[rank]
	rs := st.recvFor(key)
	if rs.head < len(rs.q) {
		idx := rs.q[rs.head]
		rs.head++
		if rs.head == len(rs.q) {
			rs.q = rs.q[:0]
			rs.head = 0
		}
		r.complete(rank, idx)
		r.drain(rank)
		return
	}
	rs.surplus++
}

func (r *Replay) finishRank(st *rankState) {
	st.finished = r.f.Engine().Now()
	r.done++
	if r.done == len(r.ranks) && r.job.OnComplete != nil {
		r.job.OnComplete(st.finished)
	}
}

// heapPush inserts v into the index min-heap.
func heapPush(h *[]int32, v int32) {
	a := append(*h, v)
	*h = a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

// heapPop removes and returns the smallest index.
func heapPop(h *[]int32) int32 {
	a := *h
	v := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	*h = a
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if rr := l + 1; rr < n && a[rr] < a[l] {
			m = rr
		}
		if a[i] <= a[m] {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return v
}

// Done reports whether every rank has completed all its operations.
func (r *Replay) Done() bool { return r.done == len(r.ranks) }

// RanksDone returns how many ranks have finished.
func (r *Replay) RanksDone() int { return r.done }

// CommTimes returns each rank's communication time — the paper's metric:
// the time the rank spent completing all its message operations (ranks
// start at job start and perform no computation). Unfinished ranks are
// reported with the span up to the current simulated time.
func (r *Replay) CommTimes() []des.Time {
	out := make([]des.Time, len(r.ranks))
	now := r.f.Engine().Now()
	for i := range r.ranks {
		end := r.ranks[i].finished
		if end < 0 {
			end = now
		}
		out[i] = end - r.job.Start
	}
	return out
}

// MaxCommTime returns the slowest rank's communication time.
func (r *Replay) MaxCommTime() des.Time { return metrics.MaxCommTime(r.CommTimes()) }

// Nodes returns the node of each rank.
func (r *Replay) Nodes() []topology.NodeID {
	return r.job.Nodes[:len(r.ranks)]
}

// AvgHopsPerRank returns the paper's per-rank average hop counts: the mean
// routers traversed by packets delivered to each rank's node.
func (r *Replay) AvgHopsPerRank() []float64 {
	out := make([]float64, len(r.ranks))
	for i, node := range r.Nodes() {
		out[i], _ = r.f.AvgHops(node)
	}
	return out
}
