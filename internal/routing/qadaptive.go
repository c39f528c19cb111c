package routing

// The qadaptive policy: an online congestion-learning router in the spirit
// of the intelligent-routing interference work (PAPERS.md, arXiv
// 2403.16288), built from the same primitives as the paper's UGAL-style
// "adp". Where adp decides from the instantaneous backlog snapshot alone,
// qadaptive keeps a per-(group-pair, path-class) Q-table: every route
// updates the pair's minimal and Valiant cost estimates with an
// exponential moving average of the observed candidate scores, and the
// fabric feeds back link-saturation onsets (see Feedback) as decaying
// penalties on the minimal class — a pair whose direct global links keep
// saturating learns to prefer the Valiant detour even in moments when the
// source router's local backlog snapshot looks clean, and drifts back to
// minimal as the penalty decays.
//
// Determinism: the table update is pure float64 arithmetic in a fixed
// order, penalties decay per read (event-count-based — no wall or sim
// clock), and the only RNG draws are the same ValiantPath draws adp makes.
// Same seed + same traffic ⇒ same routes, which the policy-determinism
// suites assert across worker counts.

import (
	"dragonfly/internal/topology"
)

// QAdaptiveConfig tunes the learning policy; zero values take defaults.
type QAdaptiveConfig struct {
	// Alpha is the EMA learning rate of the Q-update
	// q += Alpha * (cost - q). Default 0.125: a pair's estimate converges
	// within a few tens of routes without thrashing on one outlier.
	Alpha float64
	// Penalty is the cost added to a group pair's pending-penalty
	// accumulator per observed saturation onset on a global link of that
	// pair. Default 4x DefaultMinimalBias, so a single saturation event
	// is already material against the misrouting threshold.
	Penalty float64
	// PenaltyDecay multiplies a pair's pending penalty each time a route
	// consumes it (decay-on-read; in (0, 1)). Default 0.875: a saturation
	// burst stays influential for a few dozen routes, then fades.
	PenaltyDecay float64
}

func (cfg QAdaptiveConfig) withDefaults() QAdaptiveConfig {
	if cfg.Alpha <= 0 {
		cfg.Alpha = 0.125
	}
	if cfg.Penalty <= 0 {
		cfg.Penalty = 4 * DefaultMinimalBias
	}
	if cfg.PenaltyDecay <= 0 || cfg.PenaltyDecay >= 1 {
		cfg.PenaltyDecay = 0.875
	}
	return cfg
}

// QAdaptivePolicy is the congestion-learning Policy. It implements
// Feedback, so a fabric-installed instance receives saturation onsets.
type QAdaptivePolicy struct {
	c   *Chooser
	cfg QAdaptiveConfig
	n   int // group count; tables are n x n

	// q holds the learned cost estimate per (source group, destination
	// group, path class), flat-indexed (gs*n+gd)*2 + class.
	q []float64
	// pen accumulates pending saturation penalties per group pair.
	pen []float64

	misroutes int64
}

// Path classes of the Q-table.
const (
	qClassMinimal = 0
	qClassValiant = 1
)

// NewQAdaptivePolicy returns a fresh unbound policy. Use an Options.Policy
// factory to install it with a non-default config; the QAdaptive mechanism
// installs the default config.
func NewQAdaptivePolicy(cfg QAdaptiveConfig) *QAdaptivePolicy {
	return &QAdaptivePolicy{cfg: cfg.withDefaults()}
}

// Name implements Policy.
func (p *QAdaptivePolicy) Name() string { return "qadaptive" }

// Bind sizes the Q-table for the chooser's machine.
func (p *QAdaptivePolicy) Bind(c *Chooser) {
	p.c = c
	p.n = c.NumGroups()
	p.q = make([]float64, p.n*p.n*2)
	p.pen = make([]float64, p.n*p.n)
}

// Misroutes counts routes where the policy chose the Valiant class — the
// behavioral signal the convergence tests assert on.
func (p *QAdaptivePolicy) Misroutes() int64 { return p.misroutes }

// QValues returns the current cost estimates for a group pair.
func (p *QAdaptivePolicy) QValues(gs, gd int) (qMin, qVal float64) {
	base := (gs*p.n + gd) * 2
	return p.q[base+qClassMinimal], p.q[base+qClassValiant]
}

// PendingPenalty returns a pair's not-yet-consumed saturation penalty.
func (p *QAdaptivePolicy) PendingPenalty(gs, gd int) float64 {
	return p.pen[gs*p.n+gd]
}

// ObserveSaturation implements Feedback: a saturation onset on a global
// link charges the link's group pair. Local and terminal saturation is
// ignored — the Q-table's path classes only differ in how they cross the
// global fabric.
func (p *QAdaptivePolicy) ObserveSaturation(from, to topology.RouterID, kind LinkKind) {
	if kind != Global {
		return
	}
	p.pen[p.c.GroupOf(from)*p.n+p.c.GroupOf(to)] += p.cfg.Penalty
}

// takePenalty consumes a pair's pending penalty: the route sees the full
// accumulated value, and the store decays so repeated consultation forgets
// an old burst geometrically.
func (p *QAdaptivePolicy) takePenalty(pair int) float64 {
	v := p.pen[pair]
	if v != 0 {
		p.pen[pair] = v * p.cfg.PenaltyDecay
	}
	return v
}

// update folds an observed cost into a table slot and returns the new
// estimate.
func (p *QAdaptivePolicy) update(pair, class int, cost float64) float64 {
	i := pair*2 + class
	p.q[i] += p.cfg.Alpha * (cost - p.q[i])
	return p.q[i]
}

// Route implements Policy. Intra-group pairs route minimally: the Q-table
// is per group pair and its two classes only differ in global-fabric
// crossing, so there is nothing to learn inside a group. Inter-group pairs
// field the same candidate set as adp (two minimal, ValiantCandidates
// non-minimal — same RNG draw pattern, infeasible candidates dropped), but
// decide minimal-vs-Valiant from the learned estimates instead of the
// instantaneous scores alone, whenever both classes fielded a candidate.
func (p *QAdaptivePolicy) Route(rs, rd topology.RouterID) (Path, error) {
	c := p.c
	first, err := c.MinimalPath(rs, rd)
	if err != nil {
		return Path{}, err
	}
	gs := c.GroupOf(rs)
	gd := c.GroupOf(rd)
	if gs == gd {
		return first, nil
	}
	cands := append(c.candBuf[:0], first)
	nMin := 1
	if q, err := c.MinimalPath(rs, rd); err == nil {
		cands = append(cands, q)
		nMin = 2
	}
	nonMin := c.ValiantCandidates()
	for i := 0; i < nonMin; i++ {
		if q, ok := c.ValiantPath(rs, rd); ok {
			cands = append(cands, q)
		}
	}
	c.candBuf = cands[:0]

	win, minScore := pickBest(c, cands[:nMin])
	if len(cands) > nMin {
		nonIdx, nonScore := pickBest(c, cands[nMin:])
		if p.decide(gs*p.n+gd, minScore, nonScore) {
			win = nonIdx + nMin
		}
	}
	for i := range cands {
		if i != win && cands[i].arena {
			c.putHops(cands[i].Hops)
		}
	}
	return cands[win], nil
}

// decide updates the pair's two estimates from the observed scores (the
// minimal class additionally charged with the pending saturation penalty)
// and reports whether the Valiant class wins against the minimal-
// preference bias. Both classes update on every inter-group route, so the
// table tracks current conditions for whichever class is not taken, too.
func (p *QAdaptivePolicy) decide(pair int, minScore, nonScore int64) bool {
	qMin := p.update(pair, qClassMinimal, float64(minScore)+p.takePenalty(pair))
	qVal := p.update(pair, qClassValiant, float64(nonScore))
	if qVal+float64(p.c.MinimalBias()) < qMin {
		p.misroutes++
		return true
	}
	return false
}
