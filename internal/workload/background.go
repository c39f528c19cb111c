package workload

import (
	"fmt"

	"dragonfly/internal/des"
	"dragonfly/internal/network"
	"dragonfly/internal/topology"
)

// BackgroundKind selects the paper's two synthetic interference patterns
// (Sec. IV-C).
type BackgroundKind int

const (
	// UniformRandom has every background node send one message to a random
	// background peer each interval, spread across the interval — balanced
	// external traffic.
	UniformRandom BackgroundKind = iota
	// Bursty has every background node send to FanOut peers (all of them
	// by default) simultaneously each interval — bursty external traffic.
	Bursty
)

func (k BackgroundKind) String() string {
	switch k {
	case UniformRandom:
		return "uniform"
	case Bursty:
		return "bursty"
	default:
		return fmt.Sprintf("BackgroundKind(%d)", int(k))
	}
}

// BackgroundConfig parameterizes a synthetic background job. The paper's
// Table II loads correspond to MsgBytes = 16 KiB for the uniform pattern,
// and per-peer bursts of 16 KiB (CR run) or 1 KiB (FB/AMG runs).
type BackgroundConfig struct {
	Kind     BackgroundKind
	MsgBytes int64
	Interval des.Time
	// FanOut limits how many peers each node addresses per burst;
	// 0 means every other background node (the paper's pattern). Ignored
	// for UniformRandom.
	FanOut int
}

// Validate reports configuration errors.
func (c BackgroundConfig) Validate() error {
	switch {
	case c.MsgBytes < 1:
		return fmt.Errorf("workload: background MsgBytes %d must be >= 1", c.MsgBytes)
	case c.Interval < 1:
		return fmt.Errorf("workload: background Interval %v must be positive", c.Interval)
	case c.FanOut < 0:
		return fmt.Errorf("workload: background FanOut %d must be >= 0", c.FanOut)
	}
	return nil
}

// PeakLoad returns the total message load among all background ranks per
// interval — the quantity of Table II — for a job occupying `nodes` nodes.
func (c BackgroundConfig) PeakLoad(nodes int) int64 {
	if nodes < 2 {
		return 0
	}
	switch c.Kind {
	case Bursty:
		fan := c.FanOut
		if fan == 0 || fan > nodes-1 {
			fan = nodes - 1
		}
		return int64(nodes) * int64(fan) * c.MsgBytes
	default:
		return int64(nodes) * c.MsgBytes
	}
}

// Background is a running synthetic job: all its nodes repeatedly issue
// messages at the configured interval until Stop is called.
type Background struct {
	f       *network.Fabric
	cfg     BackgroundConfig
	nodes   []topology.NodeID
	rng     *des.RNG
	stopped bool
	// sends holds the current uniform wave's scheduled messages, one per
	// node, as typed event arguments. Offsets stay below Interval, so each
	// wave's sends all fire before the next wave overwrites the slice.
	sends []bgSend

	MessagesSent int64
	BytesSent    int64
}

// StartBackground launches the synthetic job on the given nodes. It panics
// on an invalid configuration; fewer than two nodes yield an inert job.
func StartBackground(f *network.Fabric, cfg BackgroundConfig, nodes []topology.NodeID, rng *des.RNG) *Background {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	b := &Background{f: f, cfg: cfg, nodes: nodes, rng: rng}
	if len(nodes) >= 2 {
		b.scheduleWave()
	}
	return b
}

// Stop ceases issuing new messages; in-flight traffic drains naturally.
func (b *Background) Stop() { b.stopped = true }

func (b *Background) scheduleWave() {
	b.f.Engine().Schedule(b.cfg.Interval, func() {
		if b.stopped {
			return
		}
		b.emitWave()
		b.scheduleWave()
	})
}

// bgSend is one scheduled uniform-random background message.
type bgSend struct {
	b        *Background
	src, dst topology.NodeID
}

func bgSendCB(arg any, _ des.Time) {
	s := arg.(*bgSend)
	if !s.b.stopped {
		s.b.send(s.src, s.dst)
	}
}

func (b *Background) emitWave() {
	n := len(b.nodes)
	switch b.cfg.Kind {
	case UniformRandom:
		// One message per node to a random peer, spread over the interval
		// so the offered load is smooth.
		if b.sends == nil {
			b.sends = make([]bgSend, n)
		}
		for i, src := range b.nodes {
			j := b.rng.Intn(n - 1)
			if j >= i {
				j++
			}
			offset := des.Time(b.rng.Int63n(int64(b.cfg.Interval)))
			s := &b.sends[i]
			s.b, s.src, s.dst = b, src, b.nodes[j]
			b.f.Engine().ScheduleCall(offset, bgSendCB, s)
		}
	case Bursty:
		// Every node addresses FanOut peers at once.
		fan := b.cfg.FanOut
		if fan == 0 || fan > n-1 {
			fan = n - 1
		}
		for i, src := range b.nodes {
			if fan == n-1 {
				for j, dst := range b.nodes {
					if j != i {
						b.send(src, dst)
					}
				}
				continue
			}
			for k := 0; k < fan; k++ {
				j := b.rng.Intn(n - 1)
				if j >= i {
					j++
				}
				b.send(src, b.nodes[j])
			}
		}
	}
}

func (b *Background) send(src, dst topology.NodeID) {
	b.MessagesSent++
	b.BytesSent += b.cfg.MsgBytes
	b.f.Send(src, dst, b.cfg.MsgBytes, nil, nil)
}
