// Package routing implements the two routing mechanisms of the paper
// (Sec. III-C) for the dragonfly of package topology:
//
//   - Minimal routing: the shortest path — within a group, at most one row
//     hop and one column hop (row first); across groups, local hops to a
//     gateway router owning a direct global link to the destination group,
//     the global hop, and local hops to the destination router.
//   - Adaptive routing (UGAL-style): up to four randomly selected candidate
//     routes, two minimal and two non-minimal (Valiant: minimal to a random
//     intermediate router, then minimal to the destination), scored by the
//     source router's output backlog toward each candidate's first link
//     multiplied by the candidate's hop count; the lowest score wins and
//     minimal wins ties.
//
// Deadlock avoidance uses monotone virtual-channel classes: the local-link
// class is (global hops taken) + (Valiant intermediates passed), the
// global-link class is the number of global hops taken; within one class a
// group is always traversed row-first-then-column, so the channel dependency
// graph is acyclic.
package routing

import (
	"fmt"

	"dragonfly/internal/des"
	"dragonfly/internal/par"
	"dragonfly/internal/recycle"
	"dragonfly/internal/topology"
)

// Mechanism names a built-in routing policy (see policy.go for the SPI
// the named policies implement).
type Mechanism int

const (
	// Minimal always takes a shortest path.
	Minimal Mechanism = iota
	// Adaptive chooses among minimal and Valiant candidates by congestion.
	Adaptive
	// QAdaptive chooses minimal vs. Valiant per group pair from a Q-table
	// learned online from link-saturation feedback (see qadaptive.go).
	QAdaptive
)

// String returns the CLI abbreviation for the mechanism
// ("min"/"adp"/"qadaptive").
func (m Mechanism) String() string {
	switch m {
	case Minimal:
		return "min"
	case Adaptive:
		return "adp"
	case QAdaptive:
		return "qadaptive"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// ParseMechanism converts a policy name — "min"/"minimal", "adp"/
// "adaptive", or "qadaptive"/"qadp" — to its Mechanism.
func ParseMechanism(s string) (Mechanism, error) {
	switch s {
	case "min", "minimal":
		return Minimal, nil
	case "adp", "adaptive":
		return Adaptive, nil
	case "qadaptive", "qadp":
		return QAdaptive, nil
	}
	return 0, fmt.Errorf("routing: unknown mechanism %q", s)
}

// LinkKind distinguishes the three channel classes of the machine, which
// carry different bandwidths and buffer sizes (Sec. II).
type LinkKind uint8

const (
	Terminal LinkKind = iota // node <-> router
	Local                    // router <-> router within a group
	Global                   // router <-> router across groups
)

func (k LinkKind) String() string {
	switch k {
	case Terminal:
		return "terminal"
	case Local:
		return "local"
	case Global:
		return "global"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// Virtual-channel class counts required by the scheme above: local classes
// 0..3 (source group, post-first-global, post-intermediate, destination
// group of a two-global Valiant path), global classes 0..1.
const (
	NumLocalVC  = 4
	NumGlobalVC = 2
)

// Hop is one router-to-router traversal.
type Hop struct {
	From topology.RouterID
	To   topology.RouterID
	Kind LinkKind // Local or Global
	VC   uint8    // virtual-channel class on this hop
}

// Path is a source-computed route between the source and destination
// routers. An empty path means both nodes share a router.
type Path struct {
	Hops []Hop
	// arena marks hop storage owned by the originating Chooser's scratch
	// arena: Chooser.Release returns it for reuse once the packet carrying
	// the path is delivered. Caller-built paths, and every path of a
	// NoCache chooser, are not arena-owned, so Release ignores them.
	arena bool
}

// RoutersTraversed counts routers visited on the way, the paper's hop
// metric: same-router delivery counts 1.
func (p Path) RoutersTraversed() int { return len(p.Hops) + 1 }

// GlobalHops counts global-link traversals.
func (p Path) GlobalHops() int {
	n := 0
	for _, h := range p.Hops {
		if h.Kind == Global {
			n++
		}
	}
	return n
}

// Congestion lets the adaptive policy sense backlog. The network fabric
// implements it; tests can stub it.
type Congestion interface {
	// OutputBacklog returns the bytes queued at router `from` waiting to
	// cross the directed link to router `to` (all VCs).
	OutputBacklog(from, to topology.RouterID) int64
}

// zeroCongestion reports an idle network; used when no oracle is supplied.
type zeroCongestion struct{}

func (zeroCongestion) OutputBacklog(_, _ topology.RouterID) int64 { return 0 }

// GatewayPolicy selects how an inter-group route picks its global link.
// The paper's minimal routing takes "a global link directly connected to
// the group having the destination node" — any of the (120 on Theta)
// parallel links; how a router spreads over them is an Aries routing-table
// detail, exposed here for the ablation benchmarks.
type GatewayPolicy int

const (
	// GatewaySpread (default) picks uniformly among the gateways at most
	// one local hop away — wide load spreading at low hop cost, matching
	// how Aries routing tables distribute minimal traffic.
	GatewaySpread GatewayPolicy = iota
	// GatewayNearest picks uniformly among the strictly nearest gateways
	// (usually the source router's own ports) — maximum locality, minimum
	// path diversity.
	GatewayNearest
	// GatewayRandom picks uniformly among all gateways of the group.
	GatewayRandom
)

// Options tunes secondary routing decisions. The zero value reproduces the
// paper's setup; the alternatives exist for the ablation benchmarks.
type Options struct {
	// Gateway selects the inter-group global-link policy.
	Gateway GatewayPolicy
	// ValiantCandidates is the number of non-minimal candidates the
	// adaptive policy samples; 0 means the paper's 2.
	ValiantCandidates int
	// MinimalBias is the backlog advantage (bytes) a non-minimal candidate
	// must have before adaptive routing misroutes — the minimal-preference
	// bias of Aries/UGAL adaptive routing. 0 means the default
	// (DefaultMinimalBias); negative disables the bias.
	MinimalBias int64
	// NoCache turns off the recycled hop-slice arena, so every Route call
	// appends its hops to fresh storage. Routes are identical either way;
	// the knob is the allocate-fresh reference of the pooling equivalence
	// tests and a memory-vs-speed debugging aid.
	NoCache bool
	// Health, when non-nil, is the degraded fabric's health view (see
	// faultaware.go): the route builders walk trees over live links, pick
	// only live gateways, fall back to a transit detour, and report
	// ErrUnreachable from TryRoute on partitioned pairs. nil (the default)
	// is the healthy fabric.
	Health topology.Health
	// Policy, when non-nil, overrides the Mechanism passed to the chooser
	// constructor: each chooser installs a fresh instance from the
	// factory as its decision policy (see policy.go for the contract). A
	// factory rather than an instance, because Options is copied into
	// every chooser of a parallel sweep and policy state must stay
	// per-chooser.
	Policy PolicyFactory
}

// DefaultMinimalBias is the default misrouting threshold: a non-minimal
// route is taken only when it beats the best minimal route's
// backlog x hops score by more than this many byte-hops (about a dozen
// max-size packets of advantage). Calibrated so that, at the paper's
// scale, FB's best configuration is rand-adp and AMG's is cont-adp, as
// the paper reports (see EXPERIMENTS.md).
const DefaultMinimalBias = 48 * 1024

func (o Options) minimalBias() int64 {
	switch {
	case o.MinimalBias == 0:
		return DefaultMinimalBias
	case o.MinimalBias < 0:
		return 0
	default:
		return o.MinimalBias
	}
}

func (o Options) valiantCandidates() int {
	if o.ValiantCandidates <= 0 {
		return 2
	}
	return o.ValiantCandidates
}

// maxPathHops bounds the hop count of any route the chooser builds: a
// minimal segment is at most 2 local + 1 global + 2 local hops, and a
// Valiant route is two such segments. Arena slices start at this capacity so
// they never regrow.
const maxPathHops = 12

// Chooser computes routes for packets. It consumes the machine through the
// topology.Interconnect seam, but only at construction: the per-route code
// runs entirely on the resolved tables below (plus the lazily built gateway
// shards), so a new topology implementation pays no per-event
// interface-dispatch cost and cannot perturb the hot path. Every table is
// linear in the router count — O(routers x routersPerGroup) next hops, and
// gateway shards only for routers that originate inter-group routes — and
// assumes nothing beyond the SPI's group-major numbering.
type Chooser struct {
	// tables holds every array the chooser fills and routes from. home is
	// where Close returns it: tables taken from tablesPool, or nil when
	// Options.NoCache asks for fresh memory.
	tables
	home *tables

	topo   topology.Interconnect
	mech   Mechanism
	policy Policy
	rng    *des.RNG
	cong   Congestion
	opts   Options

	numRouters      int
	numGroups       int
	routersPerGroup int

	// useArena enables the recycled hop-slice arena (off only with
	// NoCache, which reproduces the historical fresh-allocation behavior).
	useArena bool

	// health is the degraded fabric's view (nil while healthy; see
	// faultaware.go).
	health topology.Health
}

// tables is the memory a chooser routes from. It outlives the chooser:
// Close returns it to tablesPool and NewChooserOpts takes it back, so a
// sweep's runs reuse one set of arrays, cached gateway lists and arena hop
// slices instead of leaving each set to the collector. NewChooserOpts sets
// every entry a route reads, on recycled and fresh memory alike, so no
// route depends on which it got. Nothing in it points outside the chooser's
// own memory.
type tables struct {
	// routerOf[n] is the router of node n; groupOf[r] the group of router r.
	routerOf []topology.RouterID
	groupOf  []int32
	// nextHop is the intra-group next-hop table as per-group rows: the
	// router after cur toward dst (same group) is nextHop[cur*R + dst-g*R],
	// R = routersPerGroup. On a healthy fabric it holds the machine's
	// LocalNextHop; with a health view RebuildHealth fills it with trees
	// over the live local links, noRouter where the pair is partitioned.
	nextHop []topology.RouterID
	// valiant enumerates the eligible Valiant intermediate routers.
	valiant []topology.RouterID

	// nearestGW caches the gateway candidates of every inter-group route,
	// per (router, destination group): one shard of numGroups slots per
	// router, allocated on the first route leaving that router and filled
	// slot by slot — memory O(touched routers x groups). A slot is cached
	// when non-empty; NewChooserOpts empties every slot and keeps the
	// arrays.
	nearestGW [][][]topology.Gateway

	// freeHops is the scratch arena: hop slices recycled from delivered
	// packets and discarded adaptive candidates. Each Chooser belongs to one
	// engine/fabric (one sweep worker), so access is single-threaded.
	freeHops [][]Hop
	// candBuf is the reusable candidate scratch of the adaptive policies;
	// gwBuf that of gatewayCandidates and pickLiveGateway.
	candBuf []Path
	gwBuf   []topology.Gateway

	// Degraded-mode state (unused while health is nil; see faultaware.go).
	// liveDist holds the live hop distances in the nextHop layout; the
	// buffers are RebuildHealth and pickLiveGateway scratch.
	liveDist  []int32
	bfsQueue  []topology.RouterID
	gwDistBuf []int32
}

// tablesPool holds the tables of closed choosers. A NewChooserOpts on one
// worker may take what a Close on another returned; the pool orders the
// two.
var tablesPool recycle.Pool // *tables

// NewChooser builds a route chooser with default Options. rng drives
// gateway and Valiant sampling; cong may be nil (treated as an idle
// network), which makes Adaptive always pick minimal paths.
func NewChooser(topo topology.Interconnect, mech Mechanism, rng *des.RNG, cong Congestion) *Chooser {
	return NewChooserOpts(topo, mech, rng, cong, Options{})
}

// NewChooserOpts builds a route chooser with explicit Options, resolving the
// machine's node attachment, group membership, canonical intra-group next
// hops, and Valiant intermediates into per-route tables. It fills the
// tables a closed chooser returned to tablesPool when there are some not
// sized for a far larger machine (see recycle.Pool.GetSized), unless
// opts.NoCache asks for fresh memory.
func NewChooserOpts(topo topology.Interconnect, mech Mechanism, rng *des.RNG, cong Congestion, opts Options) *Chooser {
	if cong == nil {
		cong = zeroCongestion{}
	}
	var home *tables
	if !opts.NoCache {
		home, _ = tablesPool.GetSized(topo.NumNodes(), func(v any) int { return cap(v.(*tables).routerOf) }).(*tables)
		if home == nil {
			home = new(tables)
		}
	}
	c := &Chooser{
		home: home,
		topo: topo, mech: mech, rng: rng, cong: cong, opts: opts,
		numRouters: topo.NumRouters(),
		numGroups:  topo.NumGroups(),
		useArena:   !opts.NoCache,
		health:     opts.Health,
	}
	if home != nil {
		c.tables = *home
	}
	c.routersPerGroup = c.numRouters / c.numGroups

	c.routerOf = recycle.Resize(c.routerOf, topo.NumNodes())
	par.ForChunks(len(c.routerOf), func(lo, hi int) {
		for n := lo; n < hi; n++ {
			c.routerOf[n] = topo.RouterOfNode(topology.NodeID(n))
		}
	})
	c.groupOf = recycle.Resize(c.groupOf, c.numRouters)
	par.ForChunks(c.numRouters, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			c.groupOf[r] = int32(topo.GroupOfRouter(topology.RouterID(r)))
		}
	})
	rpg := c.routersPerGroup
	c.nextHop = recycle.Resize(c.nextHop, c.numRouters*rpg)
	if c.health != nil {
		c.RebuildHealth()
	} else {
		par.ForChunks(c.numGroups, func(lo, hi int) {
			for g := lo; g < hi; g++ {
				base := g * rpg
				for i := 0; i < rpg; i++ {
					for j := 0; j < rpg; j++ {
						c.nextHop[(base+i)*rpg+j] = topo.LocalNextHop(
							topology.RouterID(base+i), topology.RouterID(base+j))
					}
				}
			}
		})
	}
	c.valiant = recycle.Resize(c.valiant, topo.NumValiantRouters())
	for i := range c.valiant {
		c.valiant[i] = topo.ValiantRouter(i)
	}
	c.resetGatewayCache()
	if opts.Policy != nil {
		c.policy = opts.Policy()
	} else {
		c.policy = BuiltinPolicy(mech)
	}
	c.policy.Bind(c)
	return c
}

// resetGatewayCache empties every gateway-cache slot this machine's routes
// can read and keeps the arrays. A slot holds a list only within the
// length its shard was last given, by the last chooser whose machine had
// that router, so emptying each of this machine's shards over that length
// is enough, however large a machine the tables served before. Shards too
// short for this machine's group count are dropped and rebuilt on first
// use.
func (c *Chooser) resetGatewayCache() {
	c.nearestGW = recycle.Resize(c.nearestGW, c.numRouters)
	for r, shard := range c.nearestGW {
		for g := range shard {
			shard[g] = shard[g][:0]
		}
		if cap(shard) < c.numGroups {
			c.nearestGW[r] = nil
		} else {
			c.nearestGW[r] = shard[:c.numGroups]
		}
	}
}

// Close ends the chooser's run and returns its tables, the arena's hop
// slices included, to tablesPool for a later NewChooserOpts. Release every
// path still in flight first, so that the arena holds its hop slices too.
// Neither the chooser nor any path released to it may be used after. With
// Options.NoCache the tables are left to the collector.
func (c *Chooser) Close() {
	if c.home != nil {
		*c.home = c.tables
		tablesPool.Put(c.home)
	}
	*c = Chooser{}
}

// getHops returns an empty hop slice for path construction: recycled arena
// storage when available, fresh otherwise. With NoCache the arena is off and
// construction appends from nil, the historical behavior.
func (c *Chooser) getHops() []Hop {
	if !c.useArena {
		return nil
	}
	if n := len(c.freeHops); n > 0 {
		s := c.freeHops[n-1]
		c.freeHops = c.freeHops[:n-1]
		return s
	}
	return make([]Hop, 0, maxPathHops)
}

func (c *Chooser) putHops(h []Hop) {
	if cap(h) > 0 {
		c.freeHops = append(c.freeHops, h[:0])
	}
}

// Release returns an arena-owned path's hop storage to the chooser for
// reuse. Callers that keep paths alive past the packet's lifetime (tests,
// analysis tools) simply never call it; caller-built paths are ignored, so
// Release is safe on any Path. The path must not be used after Release.
func (c *Chooser) Release(p Path) {
	if p.arena {
		c.putHops(p.Hops)
	}
}

// Route computes the path for a packet from src to dst node. On a healthy
// fabric it cannot fail; with Options.Health set, an unroutable pair panics
// — callers that can face a partitioned fabric use TryRoute instead.
func (c *Chooser) Route(src, dst topology.NodeID) Path {
	p, err := c.TryRoute(src, dst)
	if err != nil {
		panic(err)
	}
	return p
}

// TryRoute computes the path for a packet from src to dst node, reporting an
// error wrapping ErrUnreachable when the faulted fabric has no live route
// between the pair (including a dead endpoint router). With a nil
// Options.Health the error is always nil.
func (c *Chooser) TryRoute(src, dst topology.NodeID) (Path, error) {
	rs := c.routerOf[src]
	rd := c.routerOf[dst]
	if c.health != nil && (!c.health.RouterUp(rs) || !c.health.RouterUp(rd)) {
		return Path{}, &UnreachableError{Src: rs, Dst: rd}
	}
	if rs == rd {
		return Path{}, nil
	}
	return c.policy.Route(rs, rd)
}

// appendLocal appends the intra-group segment from cur to dst (same group)
// on the given local VC class by walking the nextHop table — on a healthy
// XC40 grid the historical row-first-then-column dimension order. Reports
// false when the degraded fabric has partitioned the pair.
func (c *Chooser) appendLocal(hops []Hop, cur, dst topology.RouterID, class uint8) ([]Hop, bool) {
	base := int(c.groupOf[cur]) * c.routersPerGroup
	for cur != dst {
		next := c.nextHop[int(cur)*c.routersPerGroup+int(dst)-base]
		if next == noRouter {
			return hops, false
		}
		hops = append(hops, Hop{From: cur, To: next, Kind: Local, VC: class})
		cur = next
	}
	return hops, true
}

// segmentState tracks VC-class progress while a multi-segment path is built.
type segmentState struct {
	globalHops int
	midsPassed int
}

func (s segmentState) localClass() uint8  { return uint8(s.globalHops + s.midsPassed) }
func (s segmentState) globalClass() uint8 { return uint8(s.globalHops) }

// appendMinimal appends a minimal route from cur to dst given the current
// VC-class state, updating the state across global hops. allowTransit
// permits the two-global-hop detour when a degraded group pair has no live
// direct gateway; Valiant segments pass false to stay inside the VC budget.
// Reports false when no live route exists under those constraints, which
// never happens on a healthy fabric.
func (c *Chooser) appendMinimal(hops []Hop, cur, dst topology.RouterID, st *segmentState, allowTransit bool) ([]Hop, bool) {
	gs := int(c.groupOf[cur])
	gd := int(c.groupOf[dst])
	if gs == gd {
		return c.appendLocal(hops, cur, dst, st.localClass())
	}
	gw, ok := c.gateway(cur, gs, gd, dst)
	if !ok {
		// Detour: cross into the transit group over via, leave it over
		// gw. The VC classes are exactly a Valiant path's: global classes
		// 0 then 1, local classes 0 / 1 / 2 across the three groups.
		if !allowTransit || st.globalHops != 0 {
			return hops, false
		}
		var via topology.Gateway
		if via, gw, ok = c.findTransit(cur, gs, gd, dst); !ok {
			return hops, false
		}
		if hops, ok = c.appendLocal(hops, cur, via.Router, st.localClass()); !ok {
			return hops, false
		}
		hops = append(hops, Hop{From: via.Router, To: via.Peer, Kind: Global, VC: st.globalClass()})
		st.globalHops++
		cur = via.Peer
	}
	if hops, ok = c.appendLocal(hops, cur, gw.Router, st.localClass()); !ok {
		return hops, false
	}
	hops = append(hops, Hop{From: gw.Router, To: gw.Peer, Kind: Global, VC: st.globalClass()})
	st.globalHops++
	return c.appendLocal(hops, gw.Peer, dst, st.localClass())
}

// gateway selects the global link from group gs toward gd for a route at
// cur bound for dst. The two pickers differ on purpose: the healthy one
// caches its candidates per (router, destination group) and, under
// GatewayRandom, draws even from a single candidate; the live one admits
// only gateways that reach cur and dst and draws only when the choice
// varies. Reports false when the degraded pair has no live direct gateway.
func (c *Chooser) gateway(cur topology.RouterID, gs, gd int, dst topology.RouterID) (topology.Gateway, bool) {
	if c.health == nil {
		return c.pickGateway(cur, gs, gd), true
	}
	return c.pickLiveGateway(cur, gs, gd, dst)
}

// pickGateway selects a global link from group gs to gd: among the gateways
// nearest to cur (fewest local hops), one uniformly at random.
func (c *Chooser) pickGateway(cur topology.RouterID, gs, gd int) topology.Gateway {
	if c.opts.Gateway == GatewayRandom {
		gws := c.topo.Gateways(gs, gd)
		if len(gws) == 0 {
			panic(fmt.Sprintf("routing: groups %d and %d not connected", gs, gd))
		}
		return gws[c.rng.Intn(len(gws))]
	}
	cand := c.gatewayCandidates(cur, gs, gd)
	if len(cand) == 1 {
		return cand[0]
	}
	return cand[c.rng.Intn(len(cand))]
}

// gatewayCandidates returns (building and caching on first use) the
// gateway set of the configured policy: the strictly nearest gateways
// (GatewayNearest), or every gateway within one local hop (GatewaySpread,
// falling back to nearest when none is that close).
func (c *Chooser) gatewayCandidates(cur topology.RouterID, gs, gd int) []topology.Gateway {
	shard := c.nearestGW[cur]
	if shard == nil {
		shard = make([][]topology.Gateway, c.numGroups)
		c.nearestGW[cur] = shard
	}
	if cand := shard[gd]; len(cand) > 0 {
		return cand
	}
	gws := c.topo.Gateways(gs, gd)
	if len(gws) == 0 {
		panic(fmt.Sprintf("routing: groups %d and %d not connected", gs, gd))
	}
	maxDist := 0
	if c.opts.Gateway == GatewaySpread {
		maxDist = 1
	}
	// Collect in the gwBuf scratch and keep a copy in the slot's array:
	// growing each cached list by append would allocate every doubling on
	// the way, and a recycled slot's array usually fits.
	best := 3
	cand := c.gwBuf[:0]
	for _, gw := range gws {
		d := c.topo.LocalDistance(cur, gw.Router)
		switch {
		case d <= maxDist:
			if best > maxDist {
				best = maxDist
				cand = cand[:0]
			}
			cand = append(cand, gw)
		case d < best:
			best, cand = d, append(cand[:0], gw)
		case d == best && best > maxDist:
			cand = append(cand, gw)
		}
	}
	c.gwBuf = cand[:0]
	shard[gd] = append(shard[gd][:0], cand...)
	return shard[gd]
}

// MinimalPath builds the minimal route between two distinct live routers
// — the chooser's primary construction primitive — into recycled arena
// storage. On a degraded fabric it takes the live route, detouring through
// a transit group when the group pair has no live direct gateway, and
// fails with a typed *UnreachableError when the pair is partitioned. On a
// healthy fabric it never fails.
func (c *Chooser) MinimalPath(rs, rd topology.RouterID) (Path, error) {
	var st segmentState
	hops, ok := c.appendMinimal(c.getHops(), rs, rd, &st, true)
	if !ok {
		c.putHops(hops)
		return Path{}, &UnreachableError{Src: rs, Dst: rd}
	}
	return Path{Hops: hops, arena: c.useArena}, nil
}

// ValiantPath routes minimally to a random intermediate router (drawn from
// the machine's eligible set — every router on the XC40 grid, leaves only on
// Dragonfly+), then minimally to the destination, bumping the VC class at
// the intermediate. One RNG draw per call, even when the draw degenerates
// to the minimal path. On a degraded fabric a candidate whose intermediate
// is dead, or whose segments cannot route direct, is infeasible: it reports
// false and the caller fields fewer candidates. On a healthy fabric it
// always reports true.
func (c *Chooser) ValiantPath(rs, rd topology.RouterID) (Path, bool) {
	mid := c.valiant[c.rng.Intn(len(c.valiant))]
	if mid == rs || mid == rd {
		p, err := c.MinimalPath(rs, rd)
		return p, err == nil
	}
	if c.health != nil && !c.health.RouterUp(mid) {
		return Path{}, false
	}
	var st segmentState
	hops, ok := c.appendMinimal(c.getHops(), rs, mid, &st, false)
	if ok {
		st.midsPassed++
		hops, ok = c.appendMinimal(hops, mid, rd, &st, false)
	}
	if !ok {
		c.putHops(hops)
		return Path{}, false
	}
	return Path{Hops: hops, arena: c.useArena}, true
}

func pickBest(c *Chooser, paths []Path) (int, int64) {
	best := 0
	bestScore := c.Score(paths[0])
	for i, p := range paths[1:] {
		if s := c.Score(p); s < bestScore {
			best, bestScore = i+1, s
		}
	}
	return best, bestScore
}

// Score is the UGAL candidate metric: backlog-at-first-hop x hop count; an
// empty path scores zero.
func (c *Chooser) Score(p Path) int64 {
	if len(p.Hops) == 0 {
		return 0
	}
	first := p.Hops[0]
	backlog := c.cong.OutputBacklog(first.From, first.To)
	// +1 keeps hop count significant on an idle network so that shorter
	// candidates win even at zero backlog.
	return (backlog + 1) * int64(len(p.Hops))
}

// Validate checks structural invariants of a path from rs to rd: hop
// contiguity, physical link existence, VC-class monotonicity and bounds.
// It is used by tests and by the fabric in debug builds.
func Validate(topo topology.Interconnect, rs, rd topology.RouterID, p Path) error {
	cur := rs
	lastLocal, lastGlobal := -1, -1
	for i, h := range p.Hops {
		if h.From != cur {
			return fmt.Errorf("hop %d: from %d, expected %d", i, h.From, cur)
		}
		switch h.Kind {
		case Local:
			if !topo.LocalConnected(h.From, h.To) {
				return fmt.Errorf("hop %d: no local link %d->%d", i, h.From, h.To)
			}
			if int(h.VC) < lastLocal {
				return fmt.Errorf("hop %d: local VC class decreased %d->%d", i, lastLocal, h.VC)
			}
			if h.VC >= NumLocalVC {
				return fmt.Errorf("hop %d: local VC class %d out of range", i, h.VC)
			}
			lastLocal = int(h.VC)
		case Global:
			if !topo.GlobalConnected(h.From, h.To) {
				return fmt.Errorf("hop %d: no global link %d->%d", i, h.From, h.To)
			}
			if int(h.VC) != lastGlobal+1 {
				return fmt.Errorf("hop %d: global VC class %d, want %d", i, h.VC, lastGlobal+1)
			}
			if h.VC >= NumGlobalVC {
				return fmt.Errorf("hop %d: global VC class %d out of range", i, h.VC)
			}
			lastGlobal = int(h.VC)
		default:
			return fmt.Errorf("hop %d: bad kind %v", i, h.Kind)
		}
		cur = h.To
	}
	if cur != rd {
		return fmt.Errorf("path ends at %d, want %d", cur, rd)
	}
	return nil
}
