package routing

// The routing-policy SPI. The Chooser owns the resolved tables (next hops,
// gateways, hop arena, the health view) and exposes them as route
// construction primitives — MinimalPath, ValiantPath, Score, the RNG
// stream — while a Policy makes the decisions the paper's trade-off turns
// on: which path class (minimal vs. Valiant detour), which candidates,
// when to misroute. Only the chooser knows whether the fabric is degraded:
// the primitives route around dead equipment and report infeasibility
// (MinimalPath's typed error, ValiantPath's false), so a policy writes its
// decision once for both fabrics. The built-in mechanisms
// (min/adp/qadaptive) are policies like any other; external implementations get the same
// primitives and are held to the same contract (see
// internal/topotest/policytest):
//
//   - Validity: every returned path must pass Validate against the live
//     equipment — policies compose the chooser's primitives, which
//     guarantee this, rather than fabricate hops.
//   - Determinism: all randomness must come from the chooser's RNG()
//     stream, and the number and order of draws must depend only on the
//     (topology, options, fault set, call sequence) — never on wall
//     clock, map iteration, or pointer values. Same seed, same routes.
//   - Allocation: the steady-state Route path must not allocate. Build
//     hops via the primitives (arena-backed), recycle losing candidates
//     with Release, and keep per-policy state in flat arrays sized at
//     Bind time.
//   - Fault duty: Route is called with both endpoint routers alive and
//     distinct; it must return a typed *UnreachableError (never a panic or
//     a hang) when the fabric offers no live route — passing on
//     MinimalPath's error does that.

import (
	"fmt"

	"dragonfly/internal/des"
	"dragonfly/internal/topology"
)

// Policy decides which path a packet takes, given the chooser's resolved
// tables. One instance serves exactly one Chooser (Bind is called once,
// from NewChooserOpts); implementations keep their state unexported and
// unsynchronized, because a chooser belongs to a single engine worker.
type Policy interface {
	// Name is the CLI/report token for the policy ("min", "adp", ...).
	Name() string
	// Bind attaches the policy to its chooser before the first route.
	Bind(c *Chooser)
	// Route returns the path between two distinct live routers, or a
	// typed error wrapping ErrUnreachable when the degraded fabric offers
	// no live route. On a healthy fabric it never fails.
	Route(rs, rd topology.RouterID) (Path, error)
}

// PolicyFactory constructs a fresh Policy for one Chooser. Options carries
// a factory rather than an instance because policy state (Q-tables,
// scratch) is per-chooser: a parallel sweep builds one chooser per worker,
// and a shared instance would race and break run independence.
type PolicyFactory func() Policy

// Feedback is implemented by policies that learn online from fabric
// events. The fabric checks once at construction (Chooser.Feedback) and
// then notifies on link-saturation onset; policies that don't learn simply
// don't implement it, and the healthy hot path pays one nil check.
type Feedback interface {
	// ObserveSaturation fires when a directed link transitions from
	// "some VC has credit" to "every VC full" — the saturation-clock
	// edge the paper's Sec. III-E metric counts.
	ObserveSaturation(from, to topology.RouterID, kind LinkKind)
}

// PolicyNames lists the built-in policies in CLI spelling.
func PolicyNames() []string { return []string{"min", "adp", "qadaptive"} }

// BuiltinPolicy returns a fresh instance of the mechanism's policy.
func BuiltinPolicy(m Mechanism) Policy {
	switch m {
	case Minimal:
		return &minimalPolicy{}
	case Adaptive:
		return &adaptivePolicy{}
	case QAdaptive:
		return NewQAdaptivePolicy(QAdaptiveConfig{})
	default:
		panic(fmt.Sprintf("routing: unknown mechanism %d", int(m)))
	}
}

// Policy returns the chooser's installed decision policy.
func (c *Chooser) Policy() Policy { return c.policy }

// Feedback returns the installed policy's learning hook, or nil for
// policies that don't learn.
func (c *Chooser) Feedback() Feedback {
	if f, ok := c.policy.(Feedback); ok {
		return f
	}
	return nil
}

// RNG exposes the chooser's route stream — the only randomness source a
// policy may use (see the determinism contract above).
func (c *Chooser) RNG() *des.RNG { return c.rng }

// GroupOf resolves a router's group from the flat table.
func (c *Chooser) GroupOf(r topology.RouterID) int { return int(c.groupOf[r]) }

// NumGroups returns the machine's group count.
func (c *Chooser) NumGroups() int { return c.numGroups }

// MinimalBias returns the effective misrouting threshold (Options
// defaulting applied).
func (c *Chooser) MinimalBias() int64 { return c.opts.minimalBias() }

// ValiantCandidates returns the effective non-minimal candidate count.
func (c *Chooser) ValiantCandidates() int { return c.opts.valiantCandidates() }

// minimalPolicy always takes the shortest path (the paper's "min").
type minimalPolicy struct {
	c *Chooser
}

func (p *minimalPolicy) Name() string    { return "min" }
func (p *minimalPolicy) Bind(c *Chooser) { p.c = c }
func (p *minimalPolicy) Route(rs, rd topology.RouterID) (Path, error) {
	return p.c.MinimalPath(rs, rd)
}

// adaptivePolicy implements the UGAL-style choice described in the paper
// ("adp"): up to two minimal and two non-minimal candidates, scored by
// source-router backlog toward the candidate's first hop times the
// candidate's length. Losing candidates' hop storage goes back to the
// arena immediately; the winner's is released by the packet's owner at
// delivery.
type adaptivePolicy struct {
	c *Chooser
}

func (p *adaptivePolicy) Name() string    { return "adp" }
func (p *adaptivePolicy) Bind(c *Chooser) { p.c = c }

// Route drops infeasible candidates (a healthy fabric has none) and
// misroutes only when the best non-minimal candidate beats the best
// minimal one by more than the minimal-preference bias, as Aries adaptive
// routing does. Failed ports never appear as candidates, which is the
// "infinitely congested" treatment in its strongest form.
func (p *adaptivePolicy) Route(rs, rd topology.RouterID) (Path, error) {
	c := p.c
	first, err := c.MinimalPath(rs, rd)
	if err != nil {
		return Path{}, err
	}
	cands := append(c.candBuf[:0], first)
	nMin := 1
	if c.groupOf[rs] != c.groupOf[rd] {
		// A second minimal candidate only exists when gateway choice varies.
		if q, err := c.MinimalPath(rs, rd); err == nil {
			cands = append(cands, q)
			nMin = 2
		}
	}
	nonMin := c.opts.valiantCandidates()
	for i := 0; i < nonMin; i++ {
		if q, ok := c.ValiantPath(rs, rd); ok {
			cands = append(cands, q)
		}
	}
	c.candBuf = cands[:0]

	win, minScore := pickBest(c, cands[:nMin])
	if len(cands) > nMin {
		nonIdx, nonScore := pickBest(c, cands[nMin:])
		if nonScore+c.opts.minimalBias() < minScore {
			win = nonIdx + nMin
		}
	}
	for i := range cands {
		// Every candidate owns its arena storage, so each loser is
		// recycled exactly once.
		if i != win && cands[i].arena {
			c.putHops(cands[i].Hops)
		}
	}
	return cands[win], nil
}
