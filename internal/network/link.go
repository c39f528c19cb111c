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
// which the protocol guarantees), and it carries the links of the two
// queues it can wait in: an output link's request FIFO (rnext, reqVC) and
// the input queue of the router it has reached (next).
//
// The fields output arbitration reads while it scans a request FIFO come
// first: a 96-byte packet in a slab chunk starts at a multiple of 32 bytes,
// so its first 32 never straddle a cache line.
type packet struct {
	rnext *packet // next request in the output link's FIFO while queued there
	bytes int
	reqVC int32 // VC requested on the output link while queued there
	arrVC int32 // VC the packet occupies on arrLink
	// arrLink is the link carrying the packet or, once it has arrived, the
	// link whose far-end input queue arrLink.inq[arrVC] buffers it; nil
	// until the packet is injected.
	arrLink *link

	f    *Fabric
	msg  *message
	path routing.Path
	hop  int     // index of the next hop in path.Hops; == len(Hops) means eject
	next *packet // input-queue link while buffered, free-list link while free
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

// inputQueue is the receiver-side buffer of one (link, VC): packets that
// have fully arrived and wait to be switched onward, in a FIFO threaded
// through their next links. Buffer occupancy — including in-flight
// reservations — is tracked by the owning link. Only the head requests an
// output, so a queue's packets sit in no request FIFO but the head's.
type inputQueue struct{ head, tail *packet }

func (q *inputQueue) push(p *packet) {
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
}

func (q *inputQueue) pop() {
	p := q.head
	q.head, p.next = p.next, nil
	if q.head == nil {
		q.tail = nil
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
//
// The layout is part of the hot path. The fields read on every kick,
// arrival and credit fill the first two cache lines; the input queues fill
// the third; identity and saturation-clock fields, read rarely, the
// fourth. The size is a multiple of 64 bytes, so every link of the
// fabric's slice, whose allocation starts on a cache line, starts on one
// too. TestLinkLayout pins all three.
type link struct {
	f *Fabric

	// Arbitration and credit state. The request FIFO is threaded through
	// the queued packets' rnext links; a queued packet records the VC it
	// asked for in reqVC.
	rhead, rtail *packet
	busyUntil    des.Time
	kickAt       des.Time // time of the earliest scheduled kick, -1 if none
	pending      int64    // bytes across queued requests (congestion signal)

	// Constants fixed at New. xferMax is the serialization time of a
	// max-size packet; a VC is saturated — it cannot take a max-size
	// packet — once its occupancy exceeds satAt.
	latency des.Time
	xferMax des.Time

	occ     [routing.NumLocalVC]int32 // receiver-buffer bytes reserved, per VC
	vcCap   int32
	satAt   int32
	fullVCs int32

	// to is the far-end router; for a terminal link node is the attached
	// compute node, and to is its router in both directions.
	to    topology.RouterID
	node  topology.NodeID
	kind  routing.LinkKind
	eject bool // terminal link in the router->node direction
	// down marks a failed channel on a faulted fabric: the transmitter is
	// parked, pickLink skips it, and in-flight arrivals drop. Healthy
	// fabrics never set it, so the flag costs a predicted-not-taken branch.
	down bool

	bytesTx int64
	packets int64
	bw      float64

	inq [routing.NumLocalVC]inputQueue // receiver-side queues, one per VC

	id    int32
	numVC int32
	// gport is the source-side global port (global links only), the
	// identity topology.Health addresses global channels by. from is the
	// near-end router (for terminal links, the node's router).
	gport    int32
	from     topology.RouterID
	satSince des.Time
	satTotal des.Time
	_        [32]byte // pads the size to a multiple of 64 (TestLinkLayout)
}

// The per-VC arrays hold a global link's VC classes too.
var _ [routing.NumLocalVC - routing.NumGlobalVC]struct{}

// init sets every field of the link for a new run.
func (l *link) init(f *Fabric, id int, kind routing.LinkKind, numVC, vcCap int, bw float64, lat des.Time) {
	*l = link{
		f: f, id: int32(id), kind: kind, numVC: int32(numVC), vcCap: int32(vcCap), bw: bw, latency: lat,
		xferMax: serializationTime(f.params.PacketBytes, bw),
		satAt:   int32(vcCap - f.params.PacketBytes),
		kickAt:  -1,
	}
}

// hasCredit reports whether the receiver buffer of vc can accept n bytes.
func (l *link) hasCredit(vc, n int) bool { return int(l.occ[vc])+n <= int(l.vcCap) }

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
	l.occ[vc] += int32(n)
	if l.f.obs != nil {
		l.f.obs.BufferReserve(int(l.id), vc, n, int(l.occ[vc]))
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
	l.occ[vc] -= int32(n)
	if l.f.obs != nil {
		l.f.obs.BufferRelease(int(l.id), vc, n, int(l.occ[vc]))
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

// enqueue appends a request to transmit p on vc and kicks the transmitter.
// p is either fresh at a NIC (arrLink nil) or the head of the input queue
// arrLink.inq[arrVC].
func (l *link) enqueue(p *packet, vc int32) {
	p.reqVC = vc
	if l.rtail == nil {
		l.rhead = p
	} else {
		l.rtail.rnext = p
	}
	l.rtail = p
	l.pending += int64(p.bytes)
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
	var prev *packet
	for pkt := l.rhead; pkt != nil; prev, pkt = pkt, pkt.rnext {
		vc, bytes := int(pkt.reqVC), pkt.bytes
		if !l.hasCredit(vc, bytes) {
			continue
		}
		// Accept this request.
		if prev == nil {
			l.rhead = pkt.rnext
		} else {
			prev.rnext = pkt.rnext
		}
		if pkt.rnext == nil {
			l.rtail = prev
		}
		pkt.rnext = nil
		l.pending -= int64(bytes)
		l.reserve(vc, bytes)
		xfer := l.xferMax
		if bytes != f.params.PacketBytes {
			xfer = serializationTime(bytes, l.bw)
		}
		l.busyUntil = now + xfer
		l.bytesTx += int64(bytes)
		l.packets++

		up, upVC := pkt.arrLink, int(pkt.arrVC)
		pkt.arrLink, pkt.arrVC = l, pkt.reqVC
		if up == nil {
			// Injection: the NIC finishes putting this packet on the wire
			// when serialization ends. Pushed before the arrival, which
			// falls at the same instant when the terminal latency is zero.
			f.eng.AtCall(l.busyUntil, packetInjectedCB, pkt)
		}
		f.eng.AtCall(l.busyUntil+l.latency, packetArriveCB, pkt)

		if up != nil {
			// Free the upstream buffer slot the packet occupied; the credit
			// travels back over the inbound wire.
			f.eng.AtCall(now+up.latency, creditReturnCB, f.newCredit(up, upVC, bytes))
			// Pop the input queue and let its next head request an output.
			q := &up.inq[upVC]
			q.pop()
			if q.head != nil {
				f.requestNext(up, upVC)
			}
		}
		if l.rhead != nil || (l.kind == routing.Terminal && !l.eject) {
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
