// Package policytest is the differential policy-equivalence harness: it
// reduces the observable behavior of a routing configuration — the exact
// hop sequences, the chooser's RNG stream position, and (for full runs)
// link statistics and simulation clocks — to a short digest that can be
// pinned in testdata and compared across refactors. The routing-policy SPI
// landed against digests generated from the pre-SPI chooser, so "built-in
// policies are byte-identical to the hard-coded mechanisms" is a checked
// property, not a code-review judgement.
//
// The package lives under topotest but is separate from it on purpose:
// package topotest imports only topology (so routing's own internal test
// files may import it), while the digest helpers here need routing, core,
// and faults. External test packages (topotest_test, routing_test) import
// policytest; internal ones must not.
package policytest

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// LoadOracle is a deterministic stand-in for fabric backlog: every directed
// router pair reports a fixed pseudo-random queue depth, so adaptive
// scoring exercises real (non-zero, non-uniform) comparisons without a
// simulation. Distinct salts give statistically unrelated load patterns.
type LoadOracle struct {
	Salt uint64
}

// OutputBacklog implements routing.Congestion.
func (o LoadOracle) OutputBacklog(from, to topology.RouterID) int64 {
	return int64((uint64(from)*2654435761 + uint64(to)*40503 + o.Salt*7919) % 9001)
}

// Digest accumulates values into an FNV-1a hash. Field order matters:
// digests are only comparable between identical write sequences.
type Digest struct {
	h   uint64
	buf [8]byte
}

// NewDigest returns an empty accumulator.
func NewDigest() *Digest {
	return &Digest{h: 14695981039346656037}
}

func (d *Digest) bytes(p []byte) {
	const prime = 1099511628211
	for _, b := range p {
		d.h ^= uint64(b)
		d.h *= prime
	}
}

// U64 mixes in an unsigned value.
func (d *Digest) U64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.bytes(d.buf[:])
}

// I64 mixes in a signed value.
func (d *Digest) I64(v int64) { d.U64(uint64(v)) }

// F64 mixes in a float bit pattern (so "byte-identical" means exactly
// that, not approximately-equal).
func (d *Digest) F64(v float64) { d.U64(math.Float64bits(v)) }

// Str mixes in a length-prefixed string.
func (d *Digest) Str(s string) {
	d.U64(uint64(len(s)))
	d.bytes([]byte(s))
}

// Bool mixes in a boolean.
func (d *Digest) Bool(b bool) {
	if b {
		d.U64(1)
	} else {
		d.U64(0)
	}
}

// Sum returns the digest as a fixed-width hex string.
func (d *Digest) Sum() string { return fmt.Sprintf("%016x", d.h) }

// Path mixes in one route: hop count then every hop's full tuple.
func (d *Digest) Path(p routing.Path) {
	d.I64(int64(len(p.Hops)))
	for _, h := range p.Hops {
		d.I64(int64(h.From))
		d.I64(int64(h.To))
		d.I64(int64(h.Kind))
		d.I64(int64(h.VC))
	}
}

// RouteSpec describes one chooser-level digest cell.
type RouteSpec struct {
	Mech    routing.Mechanism
	Opts    routing.Options // Health is set from Faults below, not here
	Seed    int64
	Pairs   int          // sampled (src, dst) node pairs; 0 means 2048
	Salt    uint64       // congestion oracle salt
	Faults  *faults.Spec // resolved against the machine; nil = healthy
	RNGName string       // chooser stream name; "" means the fabric's "route"
	// Policy, when non-nil, overrides Mech (see routing.Options.Policy).
	Policy routing.PolicyFactory
}

// RouteDigest builds a chooser exactly the way the fabric does (same
// stream derivation), routes Pairs sampled node pairs against a salted
// congestion oracle, and digests every hop tuple, every unreachability
// error, and finally the chooser RNG's post-run position (four probe
// draws) — so a refactor that reorders or changes the number of RNG
// consumptions fails even if it happens to produce the same routes.
func RouteDigest(tb testing.TB, ic topology.Interconnect, spec RouteSpec) string {
	tb.Helper()
	opts := spec.Opts
	if spec.Faults != nil {
		set, err := faults.Resolve(spec.Faults, ic)
		if err != nil {
			tb.Fatalf("policytest: resolve faults: %v", err)
		}
		opts.Health = set
	}
	opts.Policy = spec.Policy
	root := des.NewRNG(spec.Seed, "policy-equiv")
	name := spec.RNGName
	if name == "" {
		name = "route"
	}
	rng := root.Stream(name)
	ch := routing.NewChooserOpts(ic, spec.Mech, rng, LoadOracle{Salt: spec.Salt}, opts)

	pairs := spec.Pairs
	if pairs == 0 {
		pairs = 2048
	}
	pr := des.NewRNG(spec.Seed, "policy-equiv-pairs")
	d := NewDigest()
	n := ic.NumNodes()
	for i := 0; i < pairs; i++ {
		src := topology.NodeID(pr.Intn(n))
		dst := topology.NodeID(pr.Intn(n))
		p, err := ch.TryRoute(src, dst)
		if err != nil {
			d.Str("unreach")
			d.Str(err.Error())
			continue
		}
		d.Path(p)
		ch.Release(p)
	}
	// Pin the stream position: identical routes with a different number of
	// underlying draws must not pass.
	for i := 0; i < 4; i++ {
		d.I64(rng.Int63())
	}
	return d.Sum()
}

// SimDigest runs one full simulation cell and digests everything the
// Result exposes that a routing change could perturb: the simulated clock,
// the event count, per-rank communication times and hop averages, every
// link's byte/packet/saturation counters, and the drop/partition
// accounting. Two configs with equal SimDigests behaved identically at
// fabric granularity.
func SimDigest(tb testing.TB, cfg core.Config) string {
	tb.Helper()
	res, err := core.Run(cfg)
	if err != nil {
		tb.Fatalf("policytest: run %s: %v", cfg.Name(), err)
	}
	return ResultDigest(res)
}

// ResultDigest digests a completed Result (see SimDigest).
func ResultDigest(res *core.Result) string {
	d := NewDigest()
	d.U64(uint64(res.Duration))
	d.U64(res.Events)
	d.Bool(res.Completed)
	d.I64(int64(len(res.CommTimes)))
	for _, t := range res.CommTimes {
		d.I64(int64(t))
	}
	for _, h := range res.AvgHops {
		d.F64(h)
	}
	d.I64(int64(len(res.Links)))
	for _, l := range res.Links {
		d.I64(int64(l.Kind))
		d.I64(int64(l.From))
		d.I64(int64(l.To))
		d.I64(int64(l.Node))
		d.Bool(l.Eject)
		d.I64(l.Bytes)
		d.I64(l.Packets)
		d.I64(int64(l.SatTime))
	}
	d.I64(res.DroppedPackets)
	d.I64(res.DroppedBytes)
	if res.RouteErr != nil {
		d.Str(res.RouteErr.Error())
	}
	return d.Sum()
}
