package network

import (
	"fmt"
	"strings"

	"dragonfly/internal/des"
	"dragonfly/internal/recycle"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// message is an in-flight transfer between two nodes. Packets carry a
// pointer to it, so reassembly is a byte count, not a lookup. Messages come
// from the fabric's message slab like packets: closeIfDone recycles one
// once every byte is accounted for, when no packet or NIC queue refers to
// it any more.
type message struct {
	id          uint64
	src, dst    topology.NodeID
	total       int64
	remaining   int64 // bytes not yet packetized at the source NIC
	injected    int64 // bytes fully serialized onto the terminal link
	received    int64 // bytes delivered at the destination NIC
	dropped     int64 // bytes lost to dead equipment (faulted fabrics only)
	onInjected  func(des.Time)
	onDelivered func(des.Time)
	next        *message // NIC send-queue link while queued, free-list link while free
}

// nic is a node's network interface: an injection FIFO feeding the node's
// terminal link, and the instant-drain receive side. The send queue is a
// list threaded through the queued messages' next links — a queued message
// is on no free list — so it needs no array of its own.
type nic struct {
	f          *Fabric
	head, tail *message
	queued     int
}

func (n *nic) enqueueMsg(m *message) {
	if n.tail == nil {
		n.head = m
	} else {
		n.tail.next = m
	}
	n.tail = m
	n.queued++
}

func (n *nic) dequeueMsg() {
	m := n.head
	n.head, m.next = m.next, nil
	if n.head == nil {
		n.tail = nil
	}
	n.queued--
}

// fillInjection synthesizes at most one pending injection request for the
// terminal link. The route is computed here, per packet, so adaptive
// routing senses congestion at injection time (UGAL-L). On a faulted fabric
// a chunk with no live route is discarded at the NIC (accounted as dropped,
// with the first routing error recorded for the run to surface) and the
// loop moves on, so an unreachable destination drains instead of wedging
// the send queue.
func (n *nic) fillInjection(l *link) {
	for l.rhead == nil && n.queued > 0 {
		msg := n.head
		bytes := int(msg.remaining)
		if bytes > n.f.params.PacketBytes {
			bytes = n.f.params.PacketBytes
		}
		msg.remaining -= int64(bytes)
		if msg.remaining == 0 {
			n.dequeueMsg()
		}
		path, err := n.f.chooser.TryRoute(msg.src, msg.dst)
		if err != nil {
			n.f.noteRouteError(err)
			n.f.dropBytes(msg, bytes, false)
			continue
		}
		pkt := n.f.newPacket(msg, bytes, path)
		if n.f.obs != nil {
			n.f.obs.RouteComputed(msg.src, msg.dst, pkt.path)
		}
		l.enqueue(pkt, 0)
	}
}

// injected is called when a packet has fully left the NIC.
func (n *nic) injected(pkt *packet, at des.Time) {
	msg := pkt.msg
	msg.injected += int64(pkt.bytes)
	if n.f.obs != nil {
		n.f.obs.PacketInjected(msg.id, msg.src, pkt.bytes, msg.injected)
	}
	if msg.injected == msg.total && msg.onInjected != nil {
		msg.onInjected(at)
	}
}

// Fabric is the wired machine: every router, NIC, and directed channel,
// driven by one DES engine. It implements routing.Congestion so the
// adaptive policy can sense its own output backlogs.
type Fabric struct {
	// storage holds the links, NICs, hop counters, link lookup tables and
	// the packet, message and credit slabs. home is where Close returns
	// it: storage taken from storagePool, or nil when Params.NoPacketPool
	// asks for fresh memory.
	storage
	home *storage

	eng    *des.Engine
	topo   topology.Interconnect
	params Params

	chooser *routing.Chooser
	// fb is the installed routing policy's learning hook (nil for the
	// built-in min/adp policies): link saturation onsets feed back into
	// the policy's congestion model. Resolved once at construction, so
	// the per-event cost on non-learning policies is one nil check.
	fb  routing.Feedback
	obs Observer // nil unless an auditor is attached

	numRouters int
	rpg        int // routers per group

	msgSeq uint64

	// Faulted-fabric accounting: packets/bytes discarded on dead equipment,
	// and the first routing failure (ErrUnreachable) seen at injection —
	// surfaced by core.Run after the run drains. All zero on a healthy
	// fabric.
	droppedPackets int64
	droppedBytes   int64
	routeErr       error

	// healthLog is a ring of the most recent dynamic health transitions
	// (fault/repair events), so a tripped watchdog can report what the
	// fabric's health looked like when traffic stopped moving — a stall
	// under flapping is diagnosable from the error alone.
	healthLog [healthLogSize]healthLogEntry
	healthN   int // total events recorded; the ring holds the last healthLogSize

	// Free lists through the slabs, recycled at delivery (packets), on
	// credit arrival (tokens) and at message close (messages). Each fabric
	// is driven by one sequential engine owned by one sweep worker, so the
	// lists need no locking; Params.NoPacketPool turns recycling off for
	// the pooling-equivalence tests.
	pktFree *packet
	crFree  *creditReturn
	msgFree *message
}

// storage is the memory a fabric hands out while it runs. It outlives the
// fabric: Close clears every pointer in it and returns it to storagePool,
// and New takes it back, so a sweep's runs reuse one set of links, NICs,
// lookup tables and slab chunks instead of leaving each set to the
// collector. New sets every field of whatever it hands out, on recycled
// and fresh memory alike, so nothing a run computes depends on which it
// got.
type storage struct {
	// links holds every directed channel in creation order: two terminal
	// links per node first (see termIn), then the local links router by
	// router, then the global links.
	links []link
	nics  []nic

	// per-destination-node hop accounting for the paper's avg-hops metric
	hopSum   []int64
	hopCount []int64

	// Router-to-router channel lookup, the per-hop switch operation (see
	// pairLinks). Local links sit in per-router slot rows: localSlot[a*rpg
	// + b-g*rpg] is the ID of the one directed link a -> b of group g, or
	// -1 when the pair is not adjacent. Global links live in per-router
	// runs (globalOff/globalTo/globalLinks), grouped by destination with
	// creation order preserved within a run, which pickLink's first-wins
	// tie break depends on. Memory is O(routers x rpg + links), and no
	// two groups need to be wired alike. globalFill is buildGlobalLinks'
	// per-router placement cursor.
	localSlot   []int32 // per-router rows of local link IDs, -1 when not adjacent
	globalOff   []int32 // per-router offsets into globalTo/globalLinks
	globalTo    []topology.RouterID
	globalLinks []int32 // link IDs
	globalFill  []int32

	pkts    slab[packet]
	msgs    slab[message]
	credits slab[creditReturn]
}

// storagePool holds the storage of closed fabrics. A New on one worker may
// take what a Close on another returned; the pool orders the two.
var storagePool recycle.Pool // *storage

// recycle clears every pointer in the storage, keeping its arrays and slab
// chunks.
func (s *storage) recycle() {
	clear(s.links)
	clear(s.nics)
	s.pkts.release()
	s.msgs.release()
	s.credits.release()
}

// slab carves values of one type from fixed-size chunks, so a run's
// packets, messages or credit tokens cost one allocation per chunk rather
// than one per value. A run takes values in order and recycles them
// through the fabric's free lists. The chunks stay with the fabric's
// storage when Close recycles it, so a later run on that storage builds
// chunks only past what its heaviest earlier run built.
type slab[T any] struct {
	chunks []*[slabChunk]T
	n      int // values taken this run
}

// slabChunk is the number of values in one slab chunk.
const slabChunk = 256

func (s *slab[T]) take() *T {
	c := s.n / slabChunk
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, new([slabChunk]T))
	}
	v := &s.chunks[c][s.n%slabChunk]
	s.n++
	return v
}

// release zeroes every value taken and keeps the chunks for the next run.
func (s *slab[T]) release() {
	for _, ch := range s.chunks {
		k := min(s.n, slabChunk)
		clear(ch[:k])
		s.n -= k
	}
}

// termIn and termOut return node n's injection (node -> router) and
// ejection (router -> node) links.
func (f *Fabric) termIn(n topology.NodeID) *link  { return &f.links[2*int(n)] }
func (f *Fabric) termOut(n topology.NodeID) *link { return &f.links[2*int(n)+1] }

// pairLinks returns the IDs of the parallel directed channels from one
// router to another (empty when the pair is not adjacent), in creation
// order.
func (f *Fabric) pairLinks(from, to topology.RouterID) []int32 {
	base := int(from) - int(from)%f.rpg
	if j := int(to) - base; j >= 0 && j < f.rpg {
		k := int(from)*f.rpg + j
		if f.localSlot[k] < 0 {
			return nil
		}
		return f.localSlot[k : k+1]
	}
	// A router's global runs are its handful of ports: a linear scan beats
	// any index small enough to keep.
	lo, hi := int(f.globalOff[from]), int(f.globalOff[from+1])
	for i := lo; i < hi; i++ {
		if f.globalTo[i] == to {
			j := i + 1
			for j < hi && f.globalTo[j] == to {
				j++
			}
			return f.globalLinks[i:j]
		}
	}
	return nil
}

// newPacket takes a packet from the free list (or the slab) and
// initializes it for a fresh injection.
func (f *Fabric) newPacket(msg *message, bytes int, path routing.Path) *packet {
	p := f.pktFree
	if p == nil {
		p = f.pkts.take()
	} else {
		f.pktFree = p.next
	}
	p.f, p.msg, p.bytes, p.path, p.hop = f, msg, bytes, path, 0
	p.arrLink, p.arrVC, p.next, p.rnext, p.reqVC = nil, 0, nil, nil, 0
	return p
}

// freePacket recycles a delivered packet: its route's hop storage goes back
// to the chooser's arena and the struct to the free list.
func (f *Fabric) freePacket(p *packet) {
	f.chooser.Release(p.path)
	p.path = routing.Path{}
	p.msg, p.arrLink = nil, nil
	if f.params.NoPacketPool {
		return
	}
	p.next = f.pktFree
	f.pktFree = p
}

// newCredit builds the event argument for one upstream buffer release.
func (f *Fabric) newCredit(l *link, vc, n int) *creditReturn {
	c := f.crFree
	if c == nil {
		c = f.credits.take()
	} else {
		f.crFree = c.next
	}
	c.l, c.vc, c.n, c.next = l, int32(vc), int32(n), nil
	return c
}

func (f *Fabric) freeCredit(c *creditReturn) {
	c.l = nil
	if f.params.NoPacketPool {
		return
	}
	c.next = f.crFree
	f.crFree = c
}

// newMessage takes a message from the free list (or the slab) and
// initializes it for a fresh send.
func (f *Fabric) newMessage(src, dst topology.NodeID, bytes int64, onInjected, onDelivered func(des.Time)) *message {
	m := f.msgFree
	if m == nil {
		m = f.msgs.take()
	} else {
		f.msgFree = m.next
	}
	f.msgSeq++
	m.id, m.src, m.dst, m.next = f.msgSeq, src, dst, nil
	m.total, m.remaining, m.injected, m.received, m.dropped = bytes, bytes, 0, 0, 0
	m.onInjected, m.onDelivered = onInjected, onDelivered
	return m
}

func (f *Fabric) freeMessage(m *message) {
	m.onInjected, m.onDelivered = nil, nil
	if f.params.NoPacketPool {
		return
	}
	m.next = f.msgFree
	f.msgFree = m
}

// New builds and wires a fabric on the given engine, on the storage a
// closed fabric returned to storagePool when there is some not sized for a
// far larger machine (see recycle.Pool.GetSized), unless p.NoPacketPool
// asks for fresh memory.
func New(eng *des.Engine, topo topology.Interconnect, p Params, mech routing.Mechanism, rng *des.RNG) (*Fabric, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nodes := topo.NumNodes()
	var home *storage
	if !p.NoPacketPool {
		home, _ = storagePool.GetSized(nodes, func(v any) int { return cap(v.(*storage).nics) }).(*storage)
		if home == nil {
			home = new(storage)
		}
	}
	f := &Fabric{
		home:       home,
		eng:        eng,
		topo:       topo,
		params:     p,
		numRouters: topo.NumRouters(),
	}
	if home != nil {
		f.storage = *home
	}
	f.hopSum = recycle.Resize(f.hopSum, nodes)
	f.hopCount = recycle.Resize(f.hopCount, nodes)
	clear(f.hopSum)
	clear(f.hopCount)
	f.chooser = routing.NewChooserOpts(topo, mech, rng.Stream("route"), f, p.Route)
	f.fb = f.chooser.Feedback()

	// Link IDs, and so every downstream enumeration (LinkStats,
	// RefreshHealth), follow creation order: terminal links, both
	// directions, node by node; then locals per router in LocalNeighbors
	// order; then globals in GlobalConns order. The count comes first, so
	// the links never move once pointers into them exist.
	nLocal, err := f.buildLocalSlots(topo, 2*nodes)
	if err != nil {
		return nil, err
	}
	conns := topo.GlobalConns()
	f.links = recycle.Resize(f.links, 2*nodes+nLocal+2*len(conns))
	f.nics = recycle.Resize(f.nics, nodes)
	for n := 0; n < nodes; n++ {
		node := topology.NodeID(n)
		r := topo.RouterOfNode(node)
		in, out := f.termIn(node), f.termOut(node)
		in.init(f, 2*n, routing.Terminal, 1, p.TerminalVCBuffer, p.TerminalBandwidth, p.TerminalLatency)
		in.from, in.to, in.node = r, r, node
		out.init(f, 2*n+1, routing.Terminal, 1, p.TerminalVCBuffer, p.TerminalBandwidth, p.TerminalLatency)
		out.from, out.to, out.node, out.eject = r, r, node, true
		f.nics[n] = nic{f: f}
	}
	f.buildLocalLinks(p)
	f.buildGlobalLinks(p, conns, 2*nodes+nLocal)
	f.RefreshHealth()
	return f, nil
}

// Close ends the fabric's run in three steps: the paths of the packets
// still in flight go back to the chooser's hop arena, the chooser closes
// (returning its tables and arena to its own pool), and the fabric's
// storage goes to storagePool for a later New, with every pointer in it
// cleared, so nothing of this run stays reachable from the pools. Call it
// once every result has been read out; neither the fabric nor anything it
// handed out may be used after. With Params.NoPacketPool the storage is
// left to the collector, and with Route.NoCache the chooser's tables.
func (f *Fabric) Close() {
	f.releasePaths()
	f.chooser.Close()
	if f.home != nil {
		f.storage.recycle()
		*f.home = f.storage
		storagePool.Put(f.home)
	}
	*f = Fabric{}
}

// releasePaths hands the path of every packet still in flight — queued at
// a link, buffered at a router or on the wire — back to the chooser's
// arena. A packet that was delivered or dropped holds none: freePacket
// released its path and cleared it.
func (f *Fabric) releasePaths() {
	for i := 0; i < f.pkts.n; i++ {
		f.chooser.Release(f.pkts.chunks[i/slabChunk][i%slabChunk].path)
	}
}

// buildLocalSlots fills the per-router slot rows with the IDs the local
// links will take, numbered from first in creation order, and returns
// their count.
func (f *Fabric) buildLocalSlots(topo topology.Interconnect, first int) (int, error) {
	nR := f.numRouters
	rpg := nR / topo.NumGroups()
	f.rpg = rpg
	f.localSlot = recycle.Resize(f.localSlot, nR*rpg)
	for i := range f.localSlot {
		f.localSlot[i] = -1
	}
	id := first
	for r := 0; r < nR; r++ {
		from := topology.RouterID(r)
		row := f.localSlot[r*rpg : (r+1)*rpg]
		for _, to := range topo.LocalNeighbors(from) {
			j := int(to) - (r - r%rpg)
			if j < 0 || j >= rpg || row[j] >= 0 {
				return 0, fmt.Errorf("network: %s lists router %d as a local neighbor of %d twice or outside its group",
					topo.Name(), to, from)
			}
			row[j] = int32(id)
			id++
		}
	}
	return id - first, nil
}

// buildLocalLinks creates the local link of every filled slot.
func (f *Fabric) buildLocalLinks(p Params) {
	rpg := f.rpg
	for r := 0; r < f.numRouters; r++ {
		base := r - r%rpg
		for j, id := range f.localSlot[r*rpg : (r+1)*rpg] {
			if id < 0 {
				continue
			}
			l := &f.links[id]
			l.init(f, int(id), routing.Local, routing.NumLocalVC, p.LocalVCBuffer, p.LocalBandwidth, p.LocalLatency)
			l.from, l.to = topology.RouterID(r), topology.RouterID(base+j)
		}
	}
}

// buildGlobalLinks creates the global links — two directed links per
// bidirectional connection, in conns order from link ID first, parallel
// links between the same router pair kept distinct — and lays them into
// per-router runs: count per source router, prefix-sum, place, then group
// each router's entries by destination. The insertion sort is stable, so
// parallel links keep their conns order within a run. Each direction
// remembers its source-side global port, the identity the health view
// addresses global channels by.
func (f *Fabric) buildGlobalLinks(p Params, conns []topology.GlobalConn, first int) {
	nR := f.numRouters
	gcnt := recycle.Resize(f.globalOff, nR+1)
	clear(gcnt)
	for _, c := range conns {
		gcnt[int(c.A)+1]++
		gcnt[int(c.B)+1]++
	}
	for i := 1; i <= nR; i++ {
		gcnt[i] += gcnt[i-1]
	}
	f.globalOff = gcnt
	f.globalTo = recycle.Resize(f.globalTo, int(gcnt[nR]))
	f.globalLinks = recycle.Resize(f.globalLinks, int(gcnt[nR]))
	cursor := recycle.Resize(f.globalFill, nR)
	clear(cursor)
	f.globalFill = cursor
	id := first
	for _, c := range conns {
		for _, dir := range [2]struct {
			from, to topology.RouterID
			port     int
		}{{c.A, c.B, c.APort}, {c.B, c.A, c.BPort}} {
			l := &f.links[id]
			l.init(f, id, routing.Global, routing.NumGlobalVC, p.GlobalVCBuffer, p.GlobalBandwidth, p.GlobalLatency)
			l.from, l.to, l.gport = dir.from, dir.to, int32(dir.port)
			i := f.globalOff[dir.from] + cursor[dir.from]
			cursor[dir.from]++
			f.globalTo[i], f.globalLinks[i] = dir.to, int32(id)
			id++
		}
	}
	for r := 0; r < nR; r++ {
		lo, hi := int(f.globalOff[r]), int(f.globalOff[r+1])
		for i := lo + 1; i < hi; i++ {
			to, lk := f.globalTo[i], f.globalLinks[i]
			j := i
			for j > lo && f.globalTo[j-1] > to {
				f.globalTo[j], f.globalLinks[j] = f.globalTo[j-1], f.globalLinks[j-1]
				j--
			}
			f.globalTo[j], f.globalLinks[j] = to, lk
		}
	}
}

// RefreshHealth re-reads Params.Route.Health and brings every channel's
// down state in line with it: newly failed links drain their queued
// requests as drops, repaired links wake their transmitters. The core layer
// calls it after applying each dynamic fault event (after rebuilding the
// routing tables); with no health view installed it is a no-op, so healthy
// runs are untouched.
func (f *Fabric) RefreshHealth() {
	h := f.params.Route.Health
	if h == nil {
		return
	}
	for i := range f.links {
		l := &f.links[i]
		var up bool
		switch {
		case l.kind == routing.Terminal:
			// Terminal wires share their router's fate; routing rejects
			// traffic from/to dead routers, so no separate down state.
			continue
		case l.kind == routing.Local:
			up = h.LocalLinkUp(l.from, l.to)
		default:
			up = h.GlobalLinkUp(l.from, int(l.gport))
		}
		switch {
		case !up && !l.down:
			f.failLink(l)
		case up && l.down:
			l.down = false
			l.kick()
		}
	}
}

// ApplyHealthChange is the one call a dynamic fault event needs after
// mutating the installed health view: routing tables rebuild first (new
// traffic avoids the dead equipment), then the channels sync (queued traffic
// on newly dead links drops, repaired links wake).
func (f *Fabric) ApplyHealthChange() {
	f.chooser.RebuildHealth()
	f.RefreshHealth()
}

// healthLogSize bounds the watchdog's health-transition history. Eight
// entries cover several flap cycles without bloating the error text.
const healthLogSize = 8

type healthLogEntry struct {
	at   des.Time
	desc string
}

// RecordHealthEvent notes one dynamic health transition (the fault layer's
// rendering of a fail/repair event) for the watchdog diagnostic.
func (f *Fabric) RecordHealthEvent(at des.Time, desc string) {
	f.healthLog[f.healthN%healthLogSize] = healthLogEntry{at: at, desc: desc}
	f.healthN++
}

// failLink marks a channel dead and discards its queued transmission
// requests in FIFO order: each queued packet's upstream buffer is freed and
// the bytes are accounted as dropped (packets already on the wire drop at
// arrival; see arrive). Freed input-queue heads immediately request an
// alternate output, which can no longer pick this channel.
func (f *Fabric) failLink(l *link) {
	l.down = true
	pkt := l.rhead
	l.rhead, l.rtail = nil, nil
	l.pending = 0
	for pkt != nil {
		next := pkt.rnext
		pkt.rnext = nil
		if up := pkt.arrLink; up == nil {
			// An injection request: the chunk never left the NIC.
			msg := pkt.msg
			bytes := pkt.bytes
			f.freePacket(pkt)
			f.dropBytes(msg, bytes, false)
		} else {
			vc := int(pkt.arrVC)
			up.release(vc, pkt.bytes)
			q := &up.inq[vc]
			q.pop()
			f.dropPacket(pkt)
			if q.head != nil {
				f.requestNext(up, vc)
			}
		}
		pkt = next
	}
}

// DropStats reports the packets and bytes discarded on dead equipment; both
// are zero on a healthy fabric.
func (f *Fabric) DropStats() (packets, bytes int64) {
	return f.droppedPackets, f.droppedBytes
}

// RouteError returns the first injection-time routing failure of the run
// (wrapping routing.ErrUnreachable), or nil. Traffic between disconnected
// partitions is dropped and accounted, so the run still drains; this error
// is how the condition surfaces to the caller.
func (f *Fabric) RouteError() error { return f.routeErr }

// NodeCount returns the number of nodes the fabric serves.
func (f *Fabric) NodeCount() int { return f.topo.NumNodes() }

// Engine returns the DES engine driving the fabric.
func (f *Fabric) Engine() *des.Engine { return f.eng }

// Topology returns the wired machine.
func (f *Fabric) Topology() topology.Interconnect { return f.topo }

// Params returns the channel parameters.
func (f *Fabric) Params() Params { return f.params }

// Send queues a message for injection at src's NIC. onInjected fires when
// the last byte leaves the NIC (the eager-send completion point of the MPI
// replay layer); onDelivered fires when the last byte reaches dst's NIC.
// Either callback may be nil. Zero-length messages are modeled as one byte,
// matching how real MPI stacks still exchange a header.
func (f *Fabric) Send(src, dst topology.NodeID, bytes int64, onInjected, onDelivered func(des.Time)) {
	if src == dst {
		// Loopback: no network involvement; complete after a NIC turnaround.
		at := f.eng.Now() + f.params.TerminalLatency
		f.eng.At(at, func() {
			if onInjected != nil {
				onInjected(at)
			}
			if onDelivered != nil {
				onDelivered(at)
			}
		})
		return
	}
	if bytes < 1 {
		bytes = 1
	}
	msg := f.newMessage(src, dst, bytes, onInjected, onDelivered)
	if f.obs != nil {
		f.obs.MessageQueued(msg.id, src, dst, bytes)
	}
	f.nics[src].enqueueMsg(msg)
	f.termIn(src).kick()
}

// noteRouteError records the first routing failure of the run; core.Run
// surfaces it after the engine drains.
func (f *Fabric) noteRouteError(err error) {
	if f.routeErr == nil {
		f.routeErr = err
	}
}

// dropBytes accounts the loss of part of a message on the faulted fabric
// and closes the message when every byte is either delivered or dropped.
// injected distinguishes a packet lost in the network from a chunk the NIC
// discarded before injection.
func (f *Fabric) dropBytes(msg *message, bytes int, injected bool) {
	msg.dropped += int64(bytes)
	f.droppedPackets++
	f.droppedBytes += int64(bytes)
	if f.obs != nil {
		f.obs.PacketDropped(msg.id, bytes, msg.dropped, injected)
	}
	f.closeIfDone(msg)
}

// dropPacket discards an in-network packet (its buffer occupancy must
// already be released by the caller) and recycles its storage.
func (f *Fabric) dropPacket(pkt *packet) {
	msg := pkt.msg
	bytes := pkt.bytes
	f.freePacket(pkt)
	f.dropBytes(msg, bytes, true)
}

// closeIfDone fires a message's completion callbacks once every byte is
// accounted for, and recycles the message. On a healthy fabric dropped is
// always zero and delivery alone closes the message; a lossy close also
// completes the send side (the NIC will never finish injecting a message it
// partly discarded), so the replay layer's ranks terminate instead of
// waiting forever. The callbacks are read before the message is recycled,
// since either may Send at once and reuse it.
func (f *Fabric) closeIfDone(msg *message) {
	if msg.received+msg.dropped != msg.total {
		return
	}
	onInjected, onDelivered := msg.onInjected, msg.onDelivered
	sendOpen := msg.dropped > 0 && msg.injected < msg.total
	f.freeMessage(msg)
	now := f.eng.Now()
	if sendOpen && onInjected != nil {
		onInjected(now)
	}
	if onDelivered != nil {
		onDelivered(now)
	}
}

// arrive lands a packet at the far end of link l: either the destination
// NIC (ejection), or the next router's input buffer. A packet whose link
// failed while it was on the wire is dropped here.
func (f *Fabric) arrive(l *link, vc int, pkt *packet) {
	if l.down {
		l.release(vc, pkt.bytes)
		f.dropPacket(pkt)
		return
	}
	if l.eject {
		// The NIC drains instantly: free the buffer and account delivery.
		l.release(vc, pkt.bytes)
		f.deliver(pkt)
		return
	}
	if l.kind != routing.Terminal {
		pkt.hop++ // this arrival completed one router-to-router hop
	}
	q := &l.inq[vc]
	q.push(pkt)
	if q.head == pkt {
		f.requestNext(l, vc)
	}
}

// requestNext routes the head packet of the input queue l.inq[vc] to its
// output link. On a faulted fabric a head packet whose next hop has no live
// channel left is dropped, and the loop moves to the next head so the queue
// keeps draining.
func (f *Fabric) requestNext(l *link, vc int) {
	q := &l.inq[vc]
	here := l.to
	for {
		pkt := q.head
		if pkt.hop >= len(pkt.path.Hops) {
			// Final router: eject toward the destination node. An ejection
			// link's to is its node's router, like its from.
			out := f.termOut(pkt.msg.dst)
			if out.to != here {
				panic(fmt.Sprintf("network: packet for node %d ejecting at router %d, want %d",
					pkt.msg.dst, here, out.to))
			}
			out.enqueue(pkt, 0)
			return
		}
		h := pkt.path.Hops[pkt.hop]
		if h.From != here {
			panic(fmt.Sprintf("network: packet at router %d but next hop starts at %d", here, h.From))
		}
		out := f.pickLink(h.From, h.To)
		if out != nil {
			out.enqueue(pkt, int32(h.VC))
			return
		}
		// Dead end mid-route: every channel of the hop failed after the
		// route was computed. Free this router's buffer and drop.
		l.release(vc, pkt.bytes)
		q.pop()
		f.dropPacket(pkt)
		if q.head == nil {
			return
		}
	}
}

// pickLink resolves a hop to a physical channel; among parallel live links
// joining the same router pair it picks the least backlogged. It returns
// nil when every channel of the pair is down (only possible on a faulted
// fabric).
func (f *Fabric) pickLink(from, to topology.RouterID) *link {
	ids := f.pairLinks(from, to)
	switch len(ids) {
	case 0:
		panic(fmt.Sprintf("network: no link %d->%d", from, to))
	case 1:
		if l := &f.links[ids[0]]; !l.down {
			return l
		}
		return nil
	}
	var best *link
	var bestLoad int64
	for _, id := range ids {
		l := &f.links[id]
		if l.down {
			continue
		}
		if load := l.load(); best == nil || load < bestLoad {
			best, bestLoad = l, load
		}
	}
	return best
}

// load is the congestion figure of one channel: queued request bytes plus
// reserved receiver-buffer bytes.
func (l *link) load() int64 {
	total := l.pending
	for _, o := range l.occ {
		total += int64(o)
	}
	return total
}

// deliver completes a packet at its destination NIC and accounts hops.
func (f *Fabric) deliver(pkt *packet) {
	msg := pkt.msg
	f.hopSum[msg.dst] += int64(pkt.path.RoutersTraversed())
	f.hopCount[msg.dst]++
	msg.received += int64(pkt.bytes)
	if f.obs != nil {
		f.obs.PacketDelivered(msg.id, msg.dst, pkt.bytes, msg.received)
	}
	f.freePacket(pkt)
	f.closeIfDone(msg)
}

// OutputBacklog implements routing.Congestion: bytes queued or buffered on
// the directed channel(s) from one router to another.
func (f *Fabric) OutputBacklog(from, to topology.RouterID) int64 {
	var total int64
	for _, id := range f.pairLinks(from, to) {
		total += f.links[id].load()
	}
	return total
}

// FinishStats closes open saturation intervals at the current time. Call it
// after the engine drains and before reading link statistics.
func (f *Fabric) FinishStats() {
	now := f.eng.Now()
	for i := range f.links {
		f.links[i].closeStats(now)
	}
}

// LinkStat is the per-channel record behind the paper's traffic and
// saturation figures.
type LinkStat struct {
	Kind    routing.LinkKind
	From    topology.RouterID
	To      topology.RouterID
	Node    topology.NodeID // terminal links only
	Eject   bool            // terminal links only
	Bytes   int64
	Packets int64
	SatTime des.Time
}

// LinkStats snapshots every directed channel.
func (f *Fabric) LinkStats() []LinkStat {
	out := make([]LinkStat, len(f.links))
	for i := range f.links {
		l := &f.links[i]
		out[i] = LinkStat{
			Kind: l.kind, From: l.from, To: l.to,
			Node: l.node, Eject: l.eject,
			Bytes: l.bytesTx, Packets: l.packets, SatTime: l.satTotal,
		}
	}
	return out
}

// AvgHops returns the mean routers-traversed of packets delivered to a
// node, and the packet count; avg is 0 when no packet arrived.
func (f *Fabric) AvgHops(node topology.NodeID) (avg float64, packets int64) {
	c := f.hopCount[node]
	if c == 0 {
		return 0, 0
	}
	return float64(f.hopSum[node]) / float64(c), c
}

// QueuedMessages reports how many messages are still queued at NICs;
// useful for detecting stalls in tests.
func (f *Fabric) QueuedMessages() int {
	n := 0
	for i := range f.nics {
		n += f.nics[i].queued
	}
	return n
}

// WatchdogDiagnostic renders a bounded snapshot of where traffic is stuck,
// for the DES watchdog's trip report: NIC backlog, drop counters, and the
// most congested routers by buffered bytes (queued requests plus reserved
// receiver buffers on their outgoing channels).
func (f *Fabric) WatchdogDiagnostic() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "network: %d messages queued at NICs; %d packets (%d bytes) dropped",
		f.QueuedMessages(), f.droppedPackets, f.droppedBytes)
	occ := make([]int64, f.numRouters)
	for i := range f.links {
		l := &f.links[i]
		if l.kind == routing.Terminal && l.eject {
			continue
		}
		occ[l.from] += l.load()
	}
	const top = 5
	for i := 0; i < top; i++ {
		best, bestOcc := -1, int64(0)
		for r, b := range occ {
			if b > bestOcc {
				best, bestOcc = r, b
			}
		}
		if best < 0 {
			break
		}
		fmt.Fprintf(&sb, "\nnetwork: router %d holds %d buffered bytes", best, bestOcc)
		occ[best] = 0
	}
	if f.healthN > 0 {
		fmt.Fprintf(&sb, "\nnetwork: %d health transitions applied; most recent:", f.healthN)
		start := 0
		if f.healthN > healthLogSize {
			start = f.healthN - healthLogSize
		}
		for i := start; i < f.healthN; i++ {
			e := f.healthLog[i%healthLogSize]
			fmt.Fprintf(&sb, "\nnetwork:   t=%v %s", e.at, e.desc)
		}
	}
	return sb.String()
}
