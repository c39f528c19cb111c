package network

import (
	"dragonfly/internal/des"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// packet is one unit of switching: at most Params.PacketBytes of a message.
// Packets are carved from the fabric's packet slab and recycled on a free
// list at delivery, so steady-state switching allocates none. A packet
// doubles as the typed event argument for its own in-flight hops
// (arrLink/arrVC are valid while exactly one wire traversal is scheduled,
// which the protocol guarantees).
type packet struct {
	f     *Fabric
	msg   *message
	bytes int
	path  routing.Path
	hop   int // index of the next hop in path.Hops; == len(Hops) means eject

	arrLink *link // link currently carrying the packet
	arrVC   int32 // VC the packet occupies on arrLink
	next    *packet
}

// packetArriveCB is the typed arrival event: the packet lands at the far
// end of the link that serialized it.
func packetArriveCB(arg any, _ des.Time) {
	p := arg.(*packet)
	p.f.arrive(p.arrLink, int(p.arrVC), p)
}

// packetInjectedCB is the typed injection-complete event: the packet has
// fully left its source NIC. transmit pushes it before the packet's
// arrival at the first router, so it runs first even when zero terminal
// latency puts both at one instant, and the packet — which a dead router
// may drop and recycle on arrival — has not been recycled yet.
func packetInjectedCB(arg any, at des.Time) {
	p := arg.(*packet)
	p.f.nics[p.msg.src].injected(p, at)
}

// creditReturn carries one upstream buffer release over the wire latency;
// tokens come from the fabric's credit slab and recycle on a free list.
type creditReturn struct {
	l    *link
	vc   int32
	n    int32
	next *creditReturn
}

func creditReturnCB(arg any, _ des.Time) {
	c := arg.(*creditReturn)
	l, vc, n := c.l, int(c.vc), int(c.n)
	l.f.freeCredit(c)
	l.release(vc, n)
}

// linkKickCB is the typed transmitter-wakeup event.
func linkKickCB(arg any, at des.Time) {
	l := arg.(*link)
	if l.kickAt == at {
		l.kickAt = -1
	}
	l.transmit()
}

// request is a packet (at the head of some input queue, or fresh at a NIC)
// asking to be transmitted over an output link on a given VC. It carries
// the packet's byte count, so arbitration scans the FIFO without touching
// the packets.
type request struct {
	pkt *packet
	// in is the input queue currently holding the packet; nil for injection
	// (the packet materializes at the NIC when accepted).
	in    *inputQueue
	vc    int32
	bytes int32
}

// inputQueue is the receiver-side buffer of one (link, VC): packets that
// have fully arrived and wait to be switched onward. Buffer occupancy —
// including in-flight reservations — is tracked by the owning link.
//
// The FIFO is a head-indexed slice rather than the q = q[1:] idiom: slicing
// off the head walks the backing array forward, so at capacity every append
// reallocates — that pattern was the simulator's single largest allocation
// source. Popping advances head; the array resets when the queue drains and
// compacts in place when the dead prefix reaches half the slots, so a
// steady-state queue allocates only up to its high-water mark.
type inputQueue struct {
	link *link
	vc   int
	q    []*packet
	head int
}

func (q *inputQueue) len() int         { return len(q.q) - q.head }
func (q *inputQueue) headPkt() *packet { return q.q[q.head] }

func (q *inputQueue) push(p *packet) {
	if q.head > 0 && len(q.q) == cap(q.q) && q.head*2 >= len(q.q) {
		n := copy(q.q, q.q[q.head:])
		for i := n; i < len(q.q); i++ {
			q.q[i] = nil
		}
		q.q = q.q[:n]
		q.head = 0
	}
	q.q = append(q.q, p)
}

func (q *inputQueue) pop() {
	q.q[q.head] = nil // drop the reference for the packet pool's sake
	q.head++
	if q.head == len(q.q) {
		q.q = q.q[:0]
		q.head = 0
	}
}

// link is one directed channel: terminal (node->router), ejection
// (router->node), local, or global. It owns the receiver-side per-VC buffer
// occupancy (credits), the transmitter serialization state, a FIFO request
// queue with VC skipping, and the paper's per-channel statistics.
//
// Links live in one slice per fabric (see storage), and the per-VC state is
// inline: fixed arrays sized for the largest VC class count, of which a
// link uses its first numVC entries. The auditor checks every credit
// movement against numVC.
type link struct {
	f *Fabric

	// Arbitration and credit state, read on every transmit.
	occ       [routing.NumLocalVC]int // receiver-buffer bytes reserved, per VC
	reqs      []request               // FIFO with VC skipping
	pending   int64                   // bytes across queued requests (congestion signal)
	busyUntil des.Time
	kickAt    des.Time // time of the earliest scheduled kick, -1 if none

	// Constants fixed at New. xferMax is the serialization time of a
	// max-size packet; a VC is saturated — it cannot take a max-size
	// packet — once its occupancy exceeds satAt.
	latency des.Time
	xferMax des.Time
	bw      float64
	vcCap   int
	satAt   int
	numVC   int
	id      int
	kind    routing.LinkKind
	eject   bool // terminal link in the router->node direction

	// down marks a failed channel on a faulted fabric: the transmitter is
	// parked, pickLink skips it, and in-flight arrivals drop. gport is the
	// source-side global port (global links only), the identity
	// topology.Health addresses global channels by. Healthy fabrics never
	// set down, so the flag costs a predicted-not-taken branch.
	down  bool
	gport int32

	// from/to are router IDs for Local/Global links. For Terminal links,
	// node is the attached compute node: direction In means node->router
	// (from == to == the router), direction Out means router->node.
	from, to topology.RouterID
	node     topology.NodeID

	// statistics
	bytesTx  int64
	packets  int64
	fullVCs  int
	satSince des.Time
	satTotal des.Time

	inq [routing.NumLocalVC]inputQueue // receiver-side queues, one per VC
}

// The per-VC arrays hold a global link's VC classes too.
var _ [routing.NumLocalVC - routing.NumGlobalVC]struct{}

// init sets every field of the link for a new run, keeping only the backing
// arrays of its request FIFO and input queues.
func (l *link) init(f *Fabric, id int, kind routing.LinkKind, numVC, vcCap int, bw float64, lat des.Time) {
	reqs, inq := l.reqs[:0], l.inq
	*l = link{
		f: f, id: id, kind: kind, numVC: numVC, vcCap: vcCap, bw: bw, latency: lat,
		xferMax: serializationTime(f.params.PacketBytes, bw),
		satAt:   vcCap - f.params.PacketBytes,
		kickAt:  -1,
		reqs:    reqs,
	}
	for v := range l.inq {
		l.inq[v] = inputQueue{link: l, vc: v, q: inq[v].q[:0]}
	}
}

// recycle clears every pointer the link holds, keeping the backing arrays
// of its request FIFO and input queues for the next run.
func (l *link) recycle() {
	clear(l.reqs[:cap(l.reqs)])
	l.reqs = l.reqs[:0]
	l.f = nil
	for v := range l.inq {
		q := &l.inq[v]
		clear(q.q[:cap(q.q)])
		q.link, q.q = nil, q.q[:0]
	}
}

// hasCredit reports whether the receiver buffer of vc can accept n bytes.
func (l *link) hasCredit(vc, n int) bool { return l.occ[vc]+n <= l.vcCap }

// vcFull reports the saturation condition of one VC: it cannot accept a
// max-size packet.
func (l *link) vcFull(vc int) bool { return l.occ[vc] > l.satAt }

// The link saturation clock (Sec. III-E: the time during which a link "has
// used up all its buffers") integrates the condition "at least one VC
// buffer is exhausted": traffic of that class is blocked on the channel.
// Requiring every VC class to fill simultaneously would undercount, because
// the deadlock-avoidance scheme leaves the higher classes nearly idle.

// reserve claims receiver-buffer space and updates the saturation clock.
func (l *link) reserve(vc, n int) {
	wasFull := l.vcFull(vc)
	l.occ[vc] += n
	if l.f.obs != nil {
		l.f.obs.BufferReserve(l.id, vc, n, l.occ[vc])
	}
	if !wasFull && l.vcFull(vc) {
		if l.fullVCs == 0 {
			l.satSince = l.f.eng.Now()
			// Saturation onset — the edge the stats clock records — also
			// feeds the learning routing policy, if one is installed.
			if l.f.fb != nil {
				l.f.fb.ObserveSaturation(l.from, l.to, l.kind)
			}
		}
		l.fullVCs++
	}
}

// release returns receiver-buffer space, closes any saturation interval,
// and kicks the transmitter, which may now have credit.
func (l *link) release(vc, n int) {
	wasFull := l.vcFull(vc)
	l.occ[vc] -= n
	if l.f.obs != nil {
		l.f.obs.BufferRelease(l.id, vc, n, l.occ[vc])
	}
	if l.occ[vc] < 0 {
		panic("network: negative buffer occupancy")
	}
	if wasFull && !l.vcFull(vc) {
		l.fullVCs--
		if l.fullVCs == 0 {
			l.satTotal += l.f.eng.Now() - l.satSince
		}
	}
	l.kick()
}

// enqueue adds a transmission request and kicks the transmitter.
func (l *link) enqueue(r request) {
	l.reqs = append(l.reqs, r)
	l.pending += int64(r.bytes)
	l.kick()
}

// kick schedules the transmitter to run as soon as it can. Duplicate kicks
// for the same instant collapse into one scheduled event.
func (l *link) kick() {
	now := l.f.eng.Now()
	at := now
	if l.busyUntil > at {
		at = l.busyUntil
	}
	if l.kickAt >= 0 && l.kickAt <= at {
		return // an equal-or-earlier kick is already scheduled
	}
	l.kickAt = at
	l.f.eng.AtCall(at, linkKickCB, l)
}

// transmit runs the output arbitration: take the first queued request whose
// VC has credit downstream (FIFO order with VC skipping — blocked VCs do not
// head-of-line-block others), serialize it, and hand the packet to the far
// end after the wire latency.
func (l *link) transmit() {
	if l.down {
		return // failed channel: requests were drained, arrivals will drop
	}
	f := l.f
	now := f.eng.Now()
	if l.busyUntil > now {
		l.kick()
		return
	}
	// NIC-fed links synthesize their next request lazily.
	if l.kind == routing.Terminal && !l.eject {
		f.nics[l.node].fillInjection(l)
	}
	for i, r := range l.reqs {
		vc, bytes := int(r.vc), int(r.bytes)
		if !l.hasCredit(vc, bytes) {
			continue
		}
		// Accept request i.
		l.reqs = append(l.reqs[:i], l.reqs[i+1:]...)
		l.pending -= int64(bytes)
		l.reserve(vc, bytes)
		xfer := l.xferMax
		if bytes != f.params.PacketBytes {
			xfer = serializationTime(bytes, l.bw)
		}
		l.busyUntil = now + xfer
		l.bytesTx += int64(bytes)
		l.packets++

		pkt := r.pkt
		pkt.arrLink, pkt.arrVC = l, r.vc
		if r.in == nil {
			// Injection: the NIC finishes putting this packet on the wire
			// when serialization ends. Pushed before the arrival, which
			// falls at the same instant when the terminal latency is zero.
			f.eng.AtCall(l.busyUntil, packetInjectedCB, pkt)
		}
		f.eng.AtCall(l.busyUntil+l.latency, packetArriveCB, pkt)

		if q := r.in; q != nil {
			// Free the upstream buffer slot the packet occupied; the credit
			// travels back over the inbound wire.
			up := q.link
			f.eng.AtCall(now+up.latency, creditReturnCB, f.newCredit(up, q.vc, bytes))
			// Pop the input queue and let its next head request an output.
			q.pop()
			if q.len() > 0 {
				f.requestNext(q)
			}
		}
		if len(l.reqs) > 0 || (l.kind == routing.Terminal && !l.eject) {
			l.kick()
		}
		return
	}
	// Nothing acceptable: a later credit release will kick us again.
}

// closeStats finalizes the saturation clock at simulation end so links that
// finished saturated are charged for the open interval.
func (l *link) closeStats(end des.Time) {
	if l.fullVCs > 0 {
		l.satTotal += end - l.satSince
		l.satSince = end
	}
}
