// Package trace models application communication traces — the role the
// DUMPI traces of the DOE Design Forward miniapps play in the paper — and
// provides synthetic generators reproducing the published characterization
// of the three studied applications (Sec. III-A, Fig. 2): crystal router
// (CR), fill boundary (FB), and algebraic multigrid (AMG).
//
// A trace is, per MPI rank, an ordered list of nonblocking sends, receives,
// and WaitAll fences. Computation time is absent by design: the paper's
// simulations ignore compute and measure communication only.
package trace

import (
	"fmt"
	"sync"
)

// OpKind is the kind of one trace operation.
type OpKind uint8

const (
	// OpISend posts a nonblocking send to Peer of Bytes.
	OpISend OpKind = iota
	// OpIRecv posts a nonblocking receive from Peer of Bytes.
	OpIRecv
	// OpWaitAll blocks the rank until every send posted since the previous
	// fence has been injected and every posted receive has arrived.
	OpWaitAll
)

func (k OpKind) String() string {
	switch k {
	case OpISend:
		return "isend"
	case OpIRecv:
		return "irecv"
	case OpWaitAll:
		return "waitall"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one trace operation. Peer and Bytes are meaningful for sends and
// receives; Tag identifies the communication phase.
type Op struct {
	Kind  OpKind
	Peer  int32
	Bytes int64
	Tag   int32
}

// Trace is the communication record of one application run. Its lowered
// graph and content digest are computed once, on first use, and kept on the
// trace, so a trace must not change after its first Graph or Digest call,
// nor after TotalSendBytes, Matrix or a summary, which read the graph.
type Trace struct {
	App   string
	Ranks [][]Op // Ranks[i] is the ordered op list of MPI rank i

	graph  memo[*Graph]
	digest memo[uint64]
}

// memo holds a value computed at most once per object, race-safe. Keeping
// memos on the objects themselves, not in a process-wide map keyed by
// pointer, lets a dropped trace or graph be garbage collected.
type memo[T any] struct {
	once sync.Once
	v    T
}

func (m *memo[T]) get(compute func() T) T {
	m.once.Do(func() { m.v = compute() })
	return m.v
}

// NumRanks returns the rank count.
func (t *Trace) NumRanks() int { return len(t.Ranks) }

// TotalSendBytes sums every send payload across ranks, over the lowered
// graph: lowering keeps each rank's sends in order, so the sum is the flat
// ops' to the bit.
func (t *Trace) TotalSendBytes() int64 { return t.Graph().TotalSendBytes() }

// NumPhases returns the maximum number of WaitAll fences over all ranks —
// the trace's phase count.
func (t *Trace) NumPhases() int {
	max := 0
	for _, ops := range t.Ranks {
		n := 0
		for _, op := range ops {
			if op.Kind == OpWaitAll {
				n++
			}
		}
		if n > max {
			max = n
		}
	}
	return max
}

// Digest returns a 64-bit FNV-1a content digest of the trace: the app name,
// the rank count, and every rank's ordered op list (kind, peer, bytes, tag).
// Two traces share a digest exactly when they replay identically, which is
// what lets a content-addressed result cache identify an application by its
// communication record instead of by name — a regenerated trace with the
// same label but different ops can never alias a cached result.
func (t *Trace) Digest() uint64 { return t.digest.get(t.contentDigest) }

func (t *Trace) contentDigest() uint64 {
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
	for i := 0; i < len(t.App); i++ {
		w8(t.App[i])
	}
	w64(uint64(len(t.Ranks)))
	for _, ops := range t.Ranks {
		w64(uint64(len(ops)))
		for _, op := range ops {
			w8(byte(op.Kind))
			w64(uint64(uint32(op.Peer)))
			w64(uint64(op.Bytes))
			w64(uint64(uint32(op.Tag)))
		}
	}
	return h
}

// pairKey identifies a directed transfer for matching validation.
type pairKey struct {
	src, dst int32
	bytes    int64
	tag      int32
}

// Validate checks structural invariants the replay engine relies on:
// peers in range, positive sizes, every rank's op list ending with a fence,
// and global send/receive matching — for each posted receive there is
// exactly one matching send and vice versa.
func (t *Trace) Validate() error {
	n := int32(t.NumRanks())
	balance := map[pairKey]int{}
	for rank, ops := range t.Ranks {
		if len(ops) == 0 {
			continue
		}
		if ops[len(ops)-1].Kind != OpWaitAll {
			return fmt.Errorf("trace: rank %d does not end with WaitAll", rank)
		}
		for i, op := range ops {
			switch op.Kind {
			case OpISend, OpIRecv:
				if op.Peer < 0 || op.Peer >= n {
					return fmt.Errorf("trace: rank %d op %d: peer %d out of range", rank, i, op.Peer)
				}
				if op.Peer == int32(rank) {
					return fmt.Errorf("trace: rank %d op %d: self-communication", rank, i)
				}
				if op.Bytes <= 0 {
					return fmt.Errorf("trace: rank %d op %d: non-positive size %d", rank, i, op.Bytes)
				}
				if op.Kind == OpISend {
					balance[pairKey{int32(rank), op.Peer, op.Bytes, op.Tag}]++
				} else {
					balance[pairKey{op.Peer, int32(rank), op.Bytes, op.Tag}]--
				}
			case OpWaitAll:
			default:
				return fmt.Errorf("trace: rank %d op %d: unknown kind %v", rank, i, op.Kind)
			}
		}
	}
	for k, v := range balance {
		if v != 0 {
			return fmt.Errorf("trace: unmatched transfer %d->%d %dB tag %d (balance %+d)",
				k.src, k.dst, k.bytes, k.tag, v)
		}
	}
	return nil
}

// Matrix is the communication matrix of the lowered graph (Graph.Matrix),
// the data behind Fig. 2(a)-(c).
func (t *Trace) Matrix(bins int) [][]float64 { return t.Graph().Matrix(bins) }

// PhaseLoads returns, per phase, the mean bytes sent per rank during that
// phase — the data behind the message-load-over-time plots of Fig. 2(d)-(f)
// (phase index stands in for wall time, since the traces carry no compute).
func (t *Trace) PhaseLoads() []float64 {
	phases := t.NumPhases()
	if phases == 0 {
		return nil
	}
	loads := make([]float64, phases)
	for _, ops := range t.Ranks {
		p := 0
		for _, op := range ops {
			switch op.Kind {
			case OpISend:
				loads[p] += float64(op.Bytes)
			case OpWaitAll:
				p++
			}
		}
	}
	n := float64(t.NumRanks())
	for i := range loads {
		loads[i] /= n
	}
	return loads
}

// AvgLoadPerRank returns the mean bytes a rank sends over the whole run —
// the "average message load per rank" the paper uses to compare
// communication intensity.
func (t *Trace) AvgLoadPerRank() float64 {
	if t.NumRanks() == 0 {
		return 0
	}
	return float64(t.TotalSendBytes()) / float64(t.NumRanks())
}

// builder assembles symmetric phase-structured traces.
type builder struct {
	ranks [][]Op
}

func newBuilder(n int) *builder {
	return &builder{ranks: make([][]Op, n)}
}

// exchange posts the matched pair: a send i->j and the receive at j.
func (b *builder) exchange(i, j int, bytes int64, tag int32) {
	b.ranks[i] = append(b.ranks[i], Op{Kind: OpISend, Peer: int32(j), Bytes: bytes, Tag: tag})
	b.ranks[j] = append(b.ranks[j], Op{Kind: OpIRecv, Peer: int32(i), Bytes: bytes, Tag: tag})
}

// fence ends the current phase on every rank.
func (b *builder) fence() {
	for i := range b.ranks {
		b.ranks[i] = append(b.ranks[i], Op{Kind: OpWaitAll})
	}
}

func (b *builder) build(app string) *Trace {
	return &Trace{App: app, Ranks: b.ranks}
}
