// Package network is the packet-level dragonfly fabric model — the
// equivalent of the CODES dragonfly network model the paper simulates with.
// It implements virtual cut-through switching at packet granularity with
// credit-based flow control over receiver-side per-VC buffers, per-link
// round-robin arbitration with VC skipping, byte-accurate link
// serialization, and the paper's instrumentation: per-link traffic counters
// and link-saturation clocks, per-destination hop averages, and message
// delivery notifications for the MPI replay layer.
package network

import (
	"errors"
	"math"

	"dragonfly/internal/des"
	"dragonfly/internal/routing"
)

// GiB expresses the paper's bandwidth figures.
const GiB = 1024 * 1024 * 1024

// Params carries the channel parameters of the machine. Bandwidths are in
// bytes per second; buffer capacities are bytes per virtual channel.
type Params struct {
	PacketBytes int // maximum packet payload (CODES default 4 KiB)

	TerminalBandwidth float64 // node <-> router
	LocalBandwidth    float64 // intra-group router links
	GlobalBandwidth   float64 // inter-group router links

	TerminalLatency des.Time
	LocalLatency    des.Time
	GlobalLatency   des.Time

	// Buffers are at least one packet and at most math.MaxInt32 bytes,
	// the range of a link's per-VC occupancy counters.
	TerminalVCBuffer int // "compute node virtual channel" buffer
	LocalVCBuffer    int
	GlobalVCBuffer   int

	// Route tunes secondary routing decisions; the zero value reproduces
	// the paper's setup (nearest gateways, two Valiant candidates).
	Route routing.Options

	// NoPacketPool disables the fabric's packet, credit-token and message
	// free lists, allocating fresh structs per packet and message as the
	// pre-pooling code did. Results are identical either way; the knob
	// exists for the pooling equivalence tests.
	NoPacketPool bool
}

// DefaultParams returns the Theta channel parameters recorded in Sec. II of
// the paper: 16 GiB/s terminal, 5.25 GiB/s local, 4.69 GiB/s global links;
// 8 KiB node and local VC buffers, 16 KiB global VC buffers. The latencies
// are the conventional electrical/optical figures used by dragonfly
// simulators (the paper inherits CODES defaults).
func DefaultParams() Params {
	return Params{
		PacketBytes:       4096,
		TerminalBandwidth: 16 * GiB,
		LocalBandwidth:    5.25 * GiB,
		GlobalBandwidth:   4.69 * GiB,
		TerminalLatency:   100 * des.Nanosecond,
		LocalLatency:      100 * des.Nanosecond,
		GlobalLatency:     500 * des.Nanosecond,
		TerminalVCBuffer:  8 * 1024,
		LocalVCBuffer:     8 * 1024,
		GlobalVCBuffer:    16 * 1024,
	}
}

// Validate reports whether the parameters can carry any traffic at all.
func (p Params) Validate() error {
	switch {
	case p.PacketBytes < 1 || p.PacketBytes > math.MaxInt32:
		return errors.New("network: PacketBytes must be in [1, 2^31)")
	case p.TerminalBandwidth <= 0 || p.LocalBandwidth <= 0 || p.GlobalBandwidth <= 0:
		return errors.New("network: bandwidths must be positive")
	case p.TerminalLatency < 0 || p.LocalLatency < 0 || p.GlobalLatency < 0:
		return errors.New("network: latencies must be non-negative")
	case p.TerminalVCBuffer < p.PacketBytes:
		return errors.New("network: terminal VC buffer smaller than a packet")
	case p.LocalVCBuffer < p.PacketBytes:
		return errors.New("network: local VC buffer smaller than a packet")
	case p.GlobalVCBuffer < p.PacketBytes:
		return errors.New("network: global VC buffer smaller than a packet")
	case p.TerminalVCBuffer > math.MaxInt32 || p.LocalVCBuffer > math.MaxInt32 || p.GlobalVCBuffer > math.MaxInt32:
		return errors.New("network: VC buffers must be below 2^31 bytes")
	}
	return nil
}

// serializationTime returns how long `bytes` occupy a channel of bandwidth
// `bw` bytes/second, rounded up to a whole nanosecond so zero-length
// transfers still advance time.
func serializationTime(bytes int, bw float64) des.Time {
	ns := float64(bytes) * 1e9 / bw
	t := des.Time(ns)
	if float64(t) < ns {
		t++
	}
	if t < 1 {
		t = 1
	}
	return t
}
