package policytest

import (
	"errors"
	"fmt"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

// Contract is the acceptance suite every routing.Policy implementation must
// pass — built-ins, the learning policy, and any out-of-tree policy written
// against the exported Chooser surface. It checks the contract stated on
// routing.Policy on small XC40 and Dragonfly+ machines, healthy, with a
// fifth of the global cables down, and under mixed faults that also kill
// local links and routers (dead endpoints, dead Valiant intermediates):
//
//   - validity: every emitted route passes routing.Validate, and on a
//     faulted fabric touches only live routers and links;
//   - typed failure: unroutable pairs, a dead endpoint router among them,
//     fail as routing.ErrUnreachable, never an untyped error or a panic;
//   - determinism: two choosers built from the same factory, seed, and
//     congestion oracle — fed the identical saturation-feedback sequence —
//     produce hop-identical routes and leave the RNG stream at the same
//     position, and a cell rerun later in the process reproduces the
//     digest of its first run.
func Contract(t *testing.T, factory routing.PolicyFactory) {
	machines := []struct {
		name string
		ic   topology.Interconnect
	}{
		{"mini", topotest.Mini(t)},
		{"dfplus-mini", topotest.PlusMini(t)},
	}
	// first holds each cell's digest from its first run; subtests run
	// sequentially, so no lock is needed.
	first := map[string]string{}
	for _, m := range machines {
		for _, regime := range tableRegimes {
			for _, f := range contractFaults {
				ic, fs := m.ic, f.spec
				cell := fmt.Sprintf("%s/fault=%s", m.name, f.name)
				t.Run(fmt.Sprintf("%s/%s/fault=%s", m.name, regime, f.name), func(t *testing.T) {
					d := contractCell(t, ic, factory, fs)
					if prev, ok := first[cell]; ok && d != prev {
						t.Fatalf("policy %q: rerun of %s diverged from its first run (digest %s vs %s)",
							factory().Name(), cell, d, prev)
					}
					first[cell] = d
				})
			}
		}
	}
}

// tableRegimes are the historic names of the contract's table-layout
// axis. The contract once ran every cell under each of two route/link
// table layouts (dense and compact). One layout remains; every cell still
// runs under both names, so each keeps its test ID, and the second run must
// reproduce the first's digest — a chooser's routes may not depend on what
// ran before it in the process.
var tableRegimes = []string{"dense", "compact"}

// contractSeed seeds every stream of the contract, fault draws included.
const contractSeed = 23

// contractFaults is the fault axis of the contract: the subtest name and
// the spec the cell runs under (nil is the healthy fabric).
var contractFaults = []struct {
	name string
	spec *faults.Spec
}{
	{"0.00", nil},
	{"0.20", &faults.Spec{GlobalFrac: 0.2, Seed: contractSeed + 1}},
	{"mixed", &faults.Spec{GlobalFrac: 0.1, LocalFrac: 0.1, Routers: 2, Seed: contractSeed + 1}},
}

// contractCell runs one cell and returns the digest both choosers agreed on.
func contractCell(t *testing.T, ic topology.Interconnect, factory routing.PolicyFactory, fs *faults.Spec) string {
	t.Helper()
	const seed = contractSeed
	opts := routing.Options{Policy: factory}
	var liveGlobal map[[2]topology.RouterID]bool
	if fs != nil {
		set, err := faults.Resolve(fs, ic)
		if err != nil {
			t.Fatalf("resolve faults: %v", err)
		}
		opts.Health = set
		liveGlobal = make(map[[2]topology.RouterID]bool)
		for _, c := range ic.GlobalConns() {
			if set.GlobalLinkUp(c.A, c.APort) {
				liveGlobal[[2]topology.RouterID{c.A, c.B}] = true
			}
			if set.GlobalLinkUp(c.B, c.BPort) {
				liveGlobal[[2]topology.RouterID{c.B, c.A}] = true
			}
		}
	}
	mk := func() *routing.Chooser {
		rng := des.NewRNG(seed, "policy-contract").Stream("route")
		return routing.NewChooserOpts(ic, routing.Minimal, rng, LoadOracle{Salt: 5}, opts)
	}
	// Two independent choosers from the same factory walk the same pair
	// sequence in lockstep; their digests must agree (the determinism rule).
	a, b := mk(), mk()
	fba, fbb := a.Feedback(), b.Feedback()
	da, db := NewDigest(), NewDigest()
	pr := des.NewRNG(seed, "policy-contract-pairs")
	n := ic.NumNodes()
	nr := ic.NumRouters()
	for i := 0; i < 512; i++ {
		src := topology.NodeID(pr.Intn(n))
		dst := topology.NodeID(pr.Intn(n))
		contractRoute(t, ic, a, da, src, dst, opts.Health, liveGlobal)
		contractRoute(t, ic, b, db, src, dst, opts.Health, liveGlobal)
		// Learning policies consume saturation feedback; feed both choosers
		// the identical deterministic sequence, mixing in local-link events
		// the Feedback contract says are ignorable.
		if fba != nil && i%3 == 0 {
			from := topology.RouterID(pr.Intn(nr))
			to := topology.RouterID(pr.Intn(nr))
			kind := routing.Global
			if i%6 == 0 {
				kind = routing.Local
			}
			fba.ObserveSaturation(from, to, kind)
			fbb.ObserveSaturation(from, to, kind)
		}
	}
	// Pin the RNG stream position on both sides: equal routes produced by a
	// different number of draws is still a determinism violation.
	ra, rb := a.RNG(), b.RNG()
	for i := 0; i < 4; i++ {
		da.I64(ra.Int63())
		db.I64(rb.Int63())
	}
	if da.Sum() != db.Sum() {
		t.Fatalf("policy %q is not deterministic: two identically seeded choosers diverged (digest %s vs %s)",
			factory().Name(), da.Sum(), db.Sum())
	}
	return da.Sum()
}

// contractRoute routes one pair, enforces validity (and, degraded,
// live-equipment-only plus typed unreachability), and digests the outcome.
func contractRoute(t *testing.T, ic topology.Interconnect, ch *routing.Chooser, d *Digest,
	src, dst topology.NodeID, health topology.Health, liveGlobal map[[2]topology.RouterID]bool) {
	t.Helper()
	rs, rd := ic.RouterOfNode(src), ic.RouterOfNode(dst)
	p, err := ch.TryRoute(src, dst)
	if health != nil && err == nil && (!health.RouterUp(rs) || !health.RouterUp(rd)) {
		t.Fatalf("degraded fabric %d->%d: routed between routers %d and %d, one of them dead", src, dst, rs, rd)
	}
	if err != nil {
		if health == nil {
			t.Fatalf("healthy fabric %d->%d: unexpected error: %v", src, dst, err)
		}
		if !errors.Is(err, routing.ErrUnreachable) {
			t.Fatalf("degraded fabric %d->%d: untyped failure: %v", src, dst, err)
		}
		d.Str("unreach")
		return
	}
	if err := routing.Validate(ic, rs, rd, p); err != nil {
		t.Fatalf("%d->%d: invalid route: %v\npath: %+v", src, dst, err, p.Hops)
	}
	if health != nil {
		for _, h := range p.Hops {
			if !health.RouterUp(h.From) || !health.RouterUp(h.To) {
				t.Fatalf("%d->%d: hop %d->%d touches a failed router", src, dst, h.From, h.To)
			}
			switch h.Kind {
			case routing.Local:
				if !health.LocalLinkUp(h.From, h.To) {
					t.Fatalf("%d->%d: hop traverses failed local link %d-%d", src, dst, h.From, h.To)
				}
			case routing.Global:
				if !liveGlobal[[2]topology.RouterID{h.From, h.To}] {
					t.Fatalf("%d->%d: hop traverses dead global pair %d-%d", src, dst, h.From, h.To)
				}
			}
		}
	}
	d.Path(p)
	ch.Release(p)
}
