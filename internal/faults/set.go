package faults

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dragonfly/internal/des"
	"dragonfly/internal/topology"
)

// Set is a resolved fault set over one machine: the concrete routers and
// links currently down, plus the pending dynamic event timeline. It
// implements topology.Health. Apply, its one mutator, is only legal
// between the health-rebuild points the core layer drives — the routing
// tables and fabric re-read the view after every change.
type Set struct {
	topo topology.Interconnect

	routerDown []bool
	nRouters   int // count of down routers

	localDown  map[uint64]bool // pairKey(a, b) of down local links
	globalDown map[uint64]bool // portKey(r, port), both endpoints of a down cable

	// globalPeer resolves (router, port) -> far end, for the router-alive
	// half of GlobalLinkUp; pairConns resolves a router pair -> its
	// parallel global cables, for Link targets; bundleConns resolves a
	// group pair -> every cable between the two groups, for Bundle
	// targets.
	globalPeer  map[uint64]topology.RouterID
	pairConns   map[uint64][]topology.GlobalConn
	bundleConns map[uint64][]topology.GlobalConn

	events []Event // sorted by At

	nGlobalConns, nLocalPairs int // machine totals, for Describe
}

func pairKey(a, b topology.RouterID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func portKey(r topology.RouterID, port int) uint64 {
	return uint64(uint32(r))<<16 | uint64(uint16(port))
}

func groupKey(g1, g2 int) uint64 {
	if g1 > g2 {
		g1, g2 = g2, g1
	}
	return uint64(uint32(g1))<<32 | uint64(uint32(g2))
}

// Resolve expands a spec against a machine into the concrete fault set,
// drawing the random selections from named streams of spec.Seed. It
// validates explicit IDs against the machine and rejects pairs that are not
// wired.
func Resolve(spec *Spec, topo topology.Interconnect) (*Set, error) {
	s := &Set{
		topo:        topo,
		routerDown:  make([]bool, topo.NumRouters()),
		localDown:   map[uint64]bool{},
		globalDown:  map[uint64]bool{},
		globalPeer:  map[uint64]topology.RouterID{},
		pairConns:   map[uint64][]topology.GlobalConn{},
		bundleConns: map[uint64][]topology.GlobalConn{},
	}
	conns := topo.GlobalConns()
	s.nGlobalConns = len(conns)
	for _, c := range conns {
		s.globalPeer[portKey(c.A, c.APort)] = c.B
		s.globalPeer[portKey(c.B, c.BPort)] = c.A
		k := pairKey(c.A, c.B)
		s.pairConns[k] = append(s.pairConns[k], c)
		gk := groupKey(topo.GroupOfRouter(c.A), topo.GroupOfRouter(c.B))
		s.bundleConns[gk] = append(s.bundleConns[gk], c)
	}
	localPairs := s.localPairs()
	s.nLocalPairs = len(localPairs)
	if spec == nil {
		return s, nil
	}

	if spec.GlobalFrac < 0 || spec.GlobalFrac > 1 || math.IsNaN(spec.GlobalFrac) {
		return nil, fmt.Errorf("faults: global fraction %v outside [0, 1]", spec.GlobalFrac)
	}
	if spec.LocalFrac < 0 || spec.LocalFrac > 1 || math.IsNaN(spec.LocalFrac) {
		return nil, fmt.Errorf("faults: local fraction %v outside [0, 1]", spec.LocalFrac)
	}
	if spec.Routers < 0 || spec.Routers > topo.NumRouters() {
		return nil, fmt.Errorf("faults: routers=%d outside [0, %d]", spec.Routers, topo.NumRouters())
	}

	rng := des.NewRNG(spec.Seed, "faults")
	if k := int(math.Round(spec.GlobalFrac * float64(len(conns)))); k > 0 {
		perm := rng.Stream("global").Perm(len(conns))
		for _, i := range perm[:k] {
			s.markConn(conns[i], true)
		}
	}
	if k := int(math.Round(spec.LocalFrac * float64(len(localPairs)))); k > 0 {
		perm := rng.Stream("local").Perm(len(localPairs))
		for _, i := range perm[:k] {
			s.localDown[localPairs[i]] = true
		}
	}
	if spec.Routers > 0 {
		perm := rng.Stream("router").Perm(topo.NumRouters())
		for _, r := range perm[:spec.Routers] {
			s.markRouter(topology.RouterID(r), true)
		}
	}

	for _, t := range spec.Fail {
		if err := s.check(t); err != nil {
			return nil, fmt.Errorf("faults: %v", err)
		}
		s.mark(t, true)
	}
	for _, ev := range spec.Events {
		if err := s.check(ev.Target); err != nil {
			return nil, fmt.Errorf("faults: event %v: %v", ev, err)
		}
	}
	s.events = append(s.events, spec.Events...)
	if err := s.expandFlaps(spec); err != nil {
		return nil, err
	}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].At < s.events[j].At })
	return s, nil
}

// expandFlaps turns each flap into its concrete fail/repair timeline. Each
// flap draws from its own named stream ("flap-<index>"), so adding a flap
// never perturbs its siblings' timelines, and the whole expansion is a pure
// function of (spec, machine) — flapped runs replay byte-identically.
func (s *Set) expandFlaps(spec *Spec) error {
	if len(spec.Flaps) == 0 {
		return nil
	}
	horizon := spec.FlapUntil
	if horizon <= 0 {
		horizon = DefaultFlapHorizon
	}
	for i, fl := range spec.Flaps {
		if fl.MTBF <= 0 || fl.MTTR <= 0 {
			return fmt.Errorf("faults: %v: MTBF and MTTR must be positive", fl)
		}
		if k := fl.Target.Kind; k != Router && k != Link {
			return fmt.Errorf("faults: %v: a flap takes a router or a link", fl)
		}
		if err := s.check(fl.Target); err != nil {
			return fmt.Errorf("faults: %v: %v", fl, err)
		}
		stream := des.NewRNG(spec.Seed, fmt.Sprintf("flap-%d", i))
		t := des.Time(0)
		for n := 0; n < maxFlapEvents; n++ {
			up := expDraw(stream, fl.MTBF)
			t += up
			if t >= horizon {
				break
			}
			s.events = append(s.events, Event{At: t, Target: fl.Target})
			down := expDraw(stream, fl.MTTR)
			t += down
			// The repair is emitted even past the horizon: flapped
			// equipment always ends a run healthy.
			s.events = append(s.events, Event{At: t, Repair: true, Target: fl.Target})
		}
	}
	return nil
}

// expDraw samples an exponential holding time with the given mean, clamped
// to at least one time unit so a timeline always advances.
func expDraw(rng *des.RNG, mean des.Time) des.Time {
	d := des.Time(rng.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// localPairs enumerates every local link once, as pairKeys in deterministic
// (router-major, LocalNeighbors) order.
func (s *Set) localPairs() []uint64 {
	var pairs []uint64
	for r := 0; r < s.topo.NumRouters(); r++ {
		a := topology.RouterID(r)
		for _, b := range s.topo.LocalNeighbors(a) {
			if b > a {
				pairs = append(pairs, pairKey(a, b))
			}
		}
	}
	return pairs
}

// check validates t against the machine: its IDs name equipment that
// exists, and a pair's two ends are distinct and wired to each other (a
// link's routers by a local link or a cable, a bundle's groups by at least
// one cable).
func (s *Set) check(t Target) error {
	var n int
	switch t.Kind {
	case Router, Link:
		n = s.topo.NumRouters()
	case Group, Bundle:
		n = s.topo.NumGroups()
	default:
		return fmt.Errorf("%v: unknown target kind", t)
	}
	if t.A < 0 || t.A >= n || t.Kind.pair() && (t.B < 0 || t.B >= n) {
		return fmt.Errorf("%v: ID outside [0, %d)", t, n)
	}
	if !t.Kind.pair() {
		return nil
	}
	if t.A == t.B {
		return fmt.Errorf("%v: the two IDs are equal", t)
	}
	var wired bool
	if t.Kind == Link {
		a, b := topology.RouterID(t.A), topology.RouterID(t.B)
		wired = s.topo.LocalConnected(a, b) || len(s.pairConns[pairKey(a, b)]) > 0
	} else {
		wired = len(s.bundleConns[groupKey(t.A, t.B)]) > 0
	}
	if !wired {
		return fmt.Errorf("%v: not wired to each other", t)
	}
	return nil
}

// mark takes t's equipment down, or brings it back up. Router state is
// binary, so repairing a group also brings back a router of it that failed
// on its own; a link or cable keeps its own state, so it stays down when a
// router at its end is repaired.
func (s *Set) mark(t Target, down bool) {
	switch t.Kind {
	case Router:
		s.markRouter(topology.RouterID(t.A), down)
	case Link:
		a, b := topology.RouterID(t.A), topology.RouterID(t.B)
		if s.topo.LocalConnected(a, b) {
			setDown(s.localDown, pairKey(a, b), down)
		}
		for _, c := range s.pairConns[pairKey(a, b)] {
			s.markConn(c, down)
		}
	case Group:
		for r := 0; r < s.topo.NumRouters(); r++ {
			if s.topo.GroupOfRouter(topology.RouterID(r)) == t.A {
				s.markRouter(topology.RouterID(r), down)
			}
		}
	case Bundle:
		for _, c := range s.bundleConns[groupKey(t.A, t.B)] {
			s.markConn(c, down)
		}
	}
}

func (s *Set) markRouter(r topology.RouterID, down bool) {
	if s.routerDown[r] != down {
		s.routerDown[r] = down
		if down {
			s.nRouters++
		} else {
			s.nRouters--
		}
	}
}

// markConn sets both endpoints of one global cable.
func (s *Set) markConn(c topology.GlobalConn, down bool) {
	setDown(s.globalDown, portKey(c.A, c.APort), down)
	setDown(s.globalDown, portKey(c.B, c.BPort), down)
}

func setDown(m map[uint64]bool, k uint64, down bool) {
	if down {
		m[k] = true
	} else {
		delete(m, k)
	}
}

// RouterUp implements topology.Health.
func (s *Set) RouterUp(r topology.RouterID) bool {
	return !s.routerDown[r]
}

// LocalLinkUp implements topology.Health.
func (s *Set) LocalLinkUp(a, b topology.RouterID) bool {
	if s.routerDown[a] || s.routerDown[b] {
		return false
	}
	return !s.localDown[pairKey(a, b)]
}

// GlobalLinkUp implements topology.Health.
func (s *Set) GlobalLinkUp(r topology.RouterID, port int) bool {
	if s.routerDown[r] {
		return false
	}
	peer, ok := s.globalPeer[portKey(r, port)]
	if !ok || s.routerDown[peer] {
		return false
	}
	return !s.globalDown[portKey(r, port)]
}

// Apply executes one dynamic event against the set: its target goes down,
// or with Repair comes back up.
func (s *Set) Apply(ev Event) { s.mark(ev.Target, !ev.Repair) }

// Events returns the dynamic timeline, sorted by time. The slice is shared.
func (s *Set) Events() []Event { return s.events }

// Empty reports whether nothing is down now and no events are scheduled —
// the case where the core layer skips fault wiring entirely so healthy runs
// stay byte-identical to a build without this package.
func (s *Set) Empty() bool {
	return s.nRouters == 0 && len(s.localDown) == 0 && len(s.globalDown) == 0 && len(s.events) == 0
}

// DownRouters returns the down routers in ascending order.
func (s *Set) DownRouters() []topology.RouterID {
	var out []topology.RouterID
	for r, down := range s.routerDown {
		if down {
			out = append(out, topology.RouterID(r))
		}
	}
	return out
}

// DownGlobalConns counts global cables currently marked down (independently
// of router state).
func (s *Set) DownGlobalConns() int { return len(s.globalDown) / 2 }

// DownLocalLinks counts local links currently marked down.
func (s *Set) DownLocalLinks() int { return len(s.localDown) }

// Describe summarizes the set deterministically, for logs and reports.
func (s *Set) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults: %d/%d global links, %d/%d local links, %d/%d routers down",
		s.DownGlobalConns(), s.nGlobalConns, s.DownLocalLinks(), s.nLocalPairs,
		s.nRouters, s.topo.NumRouters())
	if len(s.events) > 0 {
		fmt.Fprintf(&b, "; %d scheduled events", len(s.events))
	}
	return b.String()
}

var _ topology.Health = (*Set)(nil)
