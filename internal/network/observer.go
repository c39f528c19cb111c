package network

import (
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// Observer receives the fabric's flow-control and delivery events. It is the
// witness interface of the invariant auditor (package audit): every credit
// movement, route decision, and packet hand-off is reported so an external
// checker can maintain shadow state and cross-check it against the model.
//
// The fabric holds at most one observer; when none is installed every hook
// site reduces to a nil check, so the simulation's hot path is unaffected.
type Observer interface {
	// LinkAdded announces one directed channel and its receiver-side buffer
	// geometry. It is replayed for already-wired links when the observer is
	// installed, so SetObserver may be called after New.
	LinkAdded(linkID int, kind routing.LinkKind, numVC, vcCap int)

	// BufferReserve reports a credit claim: bytes of VC buffer on the link
	// were reserved for an accepted packet. occAfter is the model's occupancy
	// after the claim.
	BufferReserve(linkID, vc, bytes, occAfter int)

	// BufferRelease reports a credit return. occAfter is the model's
	// occupancy after the return.
	BufferRelease(linkID, vc, bytes, occAfter int)

	// RouteComputed reports the path chosen for one packet at injection time.
	RouteComputed(src, dst topology.NodeID, path routing.Path)

	// MessageQueued reports a message entering its source NIC's send queue.
	// Loopback (src == dst) transfers never touch the network and are not
	// reported.
	MessageQueued(msgID uint64, src, dst topology.NodeID, totalBytes int64)

	// PacketInjected reports a packet fully serialized onto the terminal
	// link. injectedBytes is the message's cumulative injected count after
	// this packet.
	PacketInjected(msgID uint64, src topology.NodeID, bytes int, injectedBytes int64)

	// PacketDelivered reports a packet ejected at the destination NIC.
	// receivedBytes is the message's cumulative delivered count after this
	// packet.
	PacketDelivered(msgID uint64, dst topology.NodeID, bytes int, receivedBytes int64)

	// PacketDropped reports bytes discarded on the faulted fabric: a packet
	// lost to a dead link or router, or (injected == false) a chunk the NIC
	// discarded because no live route existed at injection time.
	// droppedBytes is the message's cumulative dropped count after this
	// packet. Healthy-fabric runs never emit it.
	PacketDropped(msgID uint64, bytes int, droppedBytes int64, injected bool)
}

// SetObserver installs (or, with nil, removes) the fabric's observer and
// replays LinkAdded for every existing channel. Install before starting
// traffic: events already in flight are not replayed.
func (f *Fabric) SetObserver(o Observer) {
	f.obs = o
	if o == nil {
		return
	}
	for i := range f.links {
		l := &f.links[i]
		o.LinkAdded(l.id, l.kind, l.numVC, l.vcCap)
	}
}
