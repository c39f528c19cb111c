// Package faults is the seeded, deterministic fault model of the simulator:
// it marks routers and links of an interconnect as failed, either statically
// before a run (explicit IDs, or "fail fraction p of global/local links and
// k routers") or dynamically through scheduled failure/repair events the DES
// engine fires mid-run.
//
// The resolved Set implements topology.Health, the SPI health view the
// routing and network layers consult. Resolution is a pure function of
// (Spec, seed, machine shape): the random draws come from named des.RNG
// streams over deterministic enumerations (topology.GlobalConns order,
// LocalNeighbors order), so the same spec on the same machine always fails
// the same equipment — the property that keeps faulted runs byte-identical
// across repeats and worker counts.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"dragonfly/internal/des"
	"dragonfly/internal/topology"
)

// Spec describes which equipment to fail. The zero value fails nothing.
type Spec struct {
	// GlobalFrac fails round(GlobalFrac * |global links|) global links,
	// drawn uniformly without replacement. Must be in [0, 1].
	GlobalFrac float64
	// LocalFrac fails round(LocalFrac * |local links|) local links.
	LocalFrac float64
	// Routers fails this many routers, drawn uniformly.
	Routers int

	// FailRouters fails these routers explicitly.
	FailRouters []topology.RouterID
	// FailLinks fails the wired link(s) between each router pair: the
	// local link if the pair is locally connected, otherwise every
	// parallel global channel between the two routers.
	FailLinks [][2]topology.RouterID

	// FailGroups fails every router of each listed group: a correlated
	// whole-group outage (power domain, cooling loop).
	FailGroups []int
	// FailBundles fails every parallel global cable between each group
	// pair: a cut cable bundle, the other correlated failure domain a
	// physical dragonfly has.
	FailBundles [][2]int

	// Seed drives the random draws above. Independent of the simulation
	// seed so the same fault pattern can be replayed under different
	// traffic seeds.
	Seed int64

	// Events are dynamic failures/repairs applied at simulated times.
	Events []Event

	// Flaps are flapping elements: each expands at Resolve time into a
	// seeded alternating fail/repair timeline with exponentially
	// distributed up-times (mean MTBF) and down-times (mean MTTR), from
	// simulated time zero until FlapUntil.
	Flaps []Flap
	// FlapUntil bounds flap timelines; <= 0 selects DefaultFlapHorizon.
	// Every flap's final repair is always emitted, even past the horizon,
	// so flapped equipment ends a run healthy.
	FlapUntil des.Time
}

// DefaultFlapHorizon bounds flap expansion when the spec gives no horizon:
// long enough to straddle the communication phases of the paper's traces at
// mini scale, short enough that a flap cannot dominate the event budget.
const DefaultFlapHorizon = des.Time(1_000_000) // 1ms

// maxFlapEvents caps the fail/repair pairs one flap expands into, so a
// pathological MTBF (nanoseconds against a long horizon) truncates its
// timeline deterministically instead of exhausting memory. The final repair
// is still emitted.
const maxFlapEvents = 65536

// Flap is one flapping element: a router or wired router pair that fails
// and repairs repeatedly. MTBF is the mean up-time between failures, MTTR
// the mean down-time; both must be positive.
type Flap struct {
	// IsRouter selects between the router and the link form.
	IsRouter bool
	Router   topology.RouterID
	A, B     topology.RouterID
	MTBF     des.Time
	MTTR     des.Time
}

func (f Flap) String() string {
	target := fmt.Sprintf("link:%d-%d", f.A, f.B)
	if f.IsRouter {
		target = fmt.Sprintf("router:%d", f.Router)
	}
	return fmt.Sprintf("flap=%s@%s:%s", target, time.Duration(f.MTBF), time.Duration(f.MTTR))
}

// Event is a scheduled fault transition: at time At, the named target — a
// router, a router-pair link, a whole group, or the cable bundle between
// two groups — fails (or is repaired).
type Event struct {
	At     des.Time
	Repair bool
	// IsRouter selects the router form; IsGroup and IsBundle select the
	// correlated-domain forms. With all three false the event targets the
	// A-B link.
	IsRouter bool
	Router   topology.RouterID
	A, B     topology.RouterID
	IsGroup  bool
	IsBundle bool
	Group    int
	G1, G2   int
}

func (e Event) String() string {
	verb := "fail"
	if e.Repair {
		verb = "repair"
	}
	switch {
	case e.IsRouter:
		return fmt.Sprintf("%s=router:%d@%s", verb, e.Router, time.Duration(e.At))
	case e.IsGroup:
		return fmt.Sprintf("%s=group:%d@%s", verb, e.Group, time.Duration(e.At))
	case e.IsBundle:
		return fmt.Sprintf("%s=bundle:%d-%d@%s", verb, e.G1, e.G2, time.Duration(e.At))
	}
	return fmt.Sprintf("%s=link:%d-%d@%s", verb, e.A, e.B, time.Duration(e.At))
}

// Empty reports whether the spec fails nothing, statically or dynamically.
func (s *Spec) Empty() bool {
	if s == nil {
		return true
	}
	return s.GlobalFrac == 0 && s.LocalFrac == 0 && s.Routers == 0 &&
		len(s.FailRouters) == 0 && len(s.FailLinks) == 0 &&
		len(s.FailGroups) == 0 && len(s.FailBundles) == 0 &&
		len(s.Events) == 0 && len(s.Flaps) == 0
}

// String renders the spec in the ParseSpec grammar (canonical clause order).
func (s *Spec) String() string {
	if s.Empty() {
		return ""
	}
	var parts []string
	if s.GlobalFrac != 0 {
		parts = append(parts, "global="+strconv.FormatFloat(s.GlobalFrac, 'g', -1, 64))
	}
	if s.LocalFrac != 0 {
		parts = append(parts, "local="+strconv.FormatFloat(s.LocalFrac, 'g', -1, 64))
	}
	if s.Routers != 0 {
		parts = append(parts, "routers="+strconv.Itoa(s.Routers))
	}
	for _, r := range s.FailRouters {
		parts = append(parts, fmt.Sprintf("router=%d", r))
	}
	for _, l := range s.FailLinks {
		parts = append(parts, fmt.Sprintf("link=%d-%d", l[0], l[1]))
	}
	for _, g := range s.FailGroups {
		parts = append(parts, fmt.Sprintf("group=%d", g))
	}
	for _, b := range s.FailBundles {
		parts = append(parts, fmt.Sprintf("bundle=%d-%d", b[0], b[1]))
	}
	for _, fl := range s.Flaps {
		parts = append(parts, fl.String())
	}
	if s.FlapUntil != 0 {
		parts = append(parts, "until="+time.Duration(s.FlapUntil).String())
	}
	for _, ev := range s.Events {
		parts = append(parts, ev.String())
	}
	if s.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatInt(s.Seed, 10))
	}
	return strings.Join(parts, ",")
}

// ParseSpec decodes the CLI fault grammar: comma-separated clauses
//
//	global=FRAC          fail FRAC of the global links (0..1)
//	local=FRAC           fail FRAC of the local links
//	routers=K            fail K random routers
//	router=ID            fail router ID
//	link=A-B             fail the wired link(s) between routers A and B
//	group=G              fail every router of group G (correlated outage)
//	bundle=G1-G2         fail every global cable between groups G1 and G2
//	fail=link:A-B@DUR    schedule a link failure at simulated time DUR
//	fail=router:ID@DUR   schedule a router failure
//	fail=group:G@DUR     schedule a whole-group failure
//	fail=bundle:G1-G2@DUR schedule a cable-bundle failure
//	repair=...@DUR       schedule the matching repair
//	flap=link:A-B@MTBF:MTTR  flap the link: seeded fail/repair cycles with
//	                     exponential up-times (mean MTBF) and down-times
//	                     (mean MTTR); flap=router:ID@MTBF:MTTR likewise
//	until=DUR            horizon of flap timelines (default 1ms)
//	seed=N               seed of the random draws and flap timelines
//
// DUR, MTBF, and MTTR use Go duration syntax ("200us", "1.5ms"). An empty
// string parses to the empty spec.
func ParseSpec(text string) (*Spec, error) {
	s := &Spec{}
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	for _, clause := range strings.Split(text, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q is not key=value", clause)
		}
		switch key {
		case "global", "local":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 || math.IsNaN(f) {
				return nil, fmt.Errorf("faults: %s=%q: want a fraction in [0, 1]", key, val)
			}
			if key == "global" {
				s.GlobalFrac = f
			} else {
				s.LocalFrac = f
			}
		case "routers":
			k, err := strconv.Atoi(val)
			if err != nil || k < 0 {
				return nil, fmt.Errorf("faults: routers=%q: want a non-negative count", val)
			}
			s.Routers = k
		case "router":
			r, ok := parseRouter(val)
			if !ok {
				return nil, fmt.Errorf("faults: router=%q: want a router ID", val)
			}
			s.FailRouters = append(s.FailRouters, r)
		case "link":
			a, b, err := parsePair(val)
			if err != nil {
				return nil, fmt.Errorf("faults: link=%q: %v", val, err)
			}
			s.FailLinks = append(s.FailLinks, [2]topology.RouterID{a, b})
		case "group":
			g, err := strconv.Atoi(val)
			if err != nil || g < 0 {
				return nil, fmt.Errorf("faults: group=%q: want a group ID", val)
			}
			s.FailGroups = append(s.FailGroups, g)
		case "bundle":
			g1, g2, err := parseGroupPair(val)
			if err != nil {
				return nil, fmt.Errorf("faults: bundle=%q: %v", val, err)
			}
			s.FailBundles = append(s.FailBundles, [2]int{g1, g2})
		case "fail", "repair":
			ev, err := parseEvent(val, key == "repair")
			if err != nil {
				return nil, fmt.Errorf("faults: %s=%q: %v", key, val, err)
			}
			s.Events = append(s.Events, ev)
		case "flap":
			fl, err := parseFlap(val)
			if err != nil {
				return nil, fmt.Errorf("faults: flap=%q: %v", val, err)
			}
			s.Flaps = append(s.Flaps, fl)
		case "until":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("faults: until=%q: want a positive Go duration", val)
			}
			s.FlapUntil = des.Time(d.Nanoseconds())
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: seed=%q: want an integer", val)
			}
			s.Seed = n
		default:
			return nil, fmt.Errorf("faults: unknown clause %q (have global, local, routers, router, link, group, bundle, fail, repair, flap, until, seed)", key)
		}
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s, nil
}

// parseRouter reads a router ID: a non-negative integer that fits
// topology.RouterID, so the spec's rendering reads back as the same ID.
func parseRouter(s string) (topology.RouterID, bool) {
	r, err := strconv.ParseInt(s, 10, 32)
	return topology.RouterID(r), err == nil && r >= 0
}

func parsePair(val string) (a, b topology.RouterID, err error) {
	as, bs, ok := strings.Cut(val, "-")
	if !ok {
		return 0, 0, fmt.Errorf("want A-B router pair")
	}
	a, okA := parseRouter(as)
	b, okB := parseRouter(bs)
	if !okA || !okB {
		return 0, 0, fmt.Errorf("want A-B router pair")
	}
	if a == b {
		return 0, 0, fmt.Errorf("endpoints are equal")
	}
	return a, b, nil
}

func parseGroupPair(val string) (g1, g2 int, err error) {
	as, bs, ok := strings.Cut(val, "-")
	if !ok {
		return 0, 0, fmt.Errorf("want G1-G2 group pair")
	}
	g1, err1 := strconv.Atoi(as)
	g2, err2 := strconv.Atoi(bs)
	if err1 != nil || err2 != nil || g1 < 0 || g2 < 0 {
		return 0, 0, fmt.Errorf("want G1-G2 group pair")
	}
	if g1 == g2 {
		return 0, 0, fmt.Errorf("groups are equal")
	}
	return g1, g2, nil
}

func parseEvent(val string, repair bool) (Event, error) {
	body, at, ok := strings.Cut(val, "@")
	if !ok {
		return Event{}, fmt.Errorf("want TARGET@TIME (e.g. link:3-40@200us)")
	}
	d, err := time.ParseDuration(at)
	if err != nil || d < 0 {
		return Event{}, fmt.Errorf("bad time %q: want a Go duration", at)
	}
	ev := Event{At: des.Time(d.Nanoseconds()), Repair: repair}
	kind, target, ok := strings.Cut(body, ":")
	if !ok {
		return Event{}, fmt.Errorf("want link:A-B, router:ID, group:G, or bundle:G1-G2 before @")
	}
	switch kind {
	case "router":
		r, ok := parseRouter(target)
		if !ok {
			return Event{}, fmt.Errorf("bad router ID %q", target)
		}
		ev.IsRouter = true
		ev.Router = r
	case "link":
		a, b, err := parsePair(target)
		if err != nil {
			return Event{}, fmt.Errorf("bad link %q: %v", target, err)
		}
		ev.A, ev.B = a, b
	case "group":
		g, err := strconv.Atoi(target)
		if err != nil || g < 0 {
			return Event{}, fmt.Errorf("bad group ID %q", target)
		}
		ev.IsGroup = true
		ev.Group = g
	case "bundle":
		g1, g2, err := parseGroupPair(target)
		if err != nil {
			return Event{}, fmt.Errorf("bad bundle %q: %v", target, err)
		}
		ev.IsBundle = true
		ev.G1, ev.G2 = g1, g2
	default:
		return Event{}, fmt.Errorf("unknown target kind %q (want link, router, group, or bundle)", kind)
	}
	return ev, nil
}

// parseFlap decodes TARGET@MTBF:MTTR, where TARGET is link:A-B or
// router:ID and both durations are positive.
func parseFlap(val string) (Flap, error) {
	body, times, ok := strings.Cut(val, "@")
	if !ok {
		return Flap{}, fmt.Errorf("want TARGET@MTBF:MTTR (e.g. link:3-40@500us:50us)")
	}
	ms, rs, ok := strings.Cut(times, ":")
	if !ok {
		return Flap{}, fmt.Errorf("want MTBF:MTTR after @ (two Go durations)")
	}
	mtbf, err1 := time.ParseDuration(ms)
	mttr, err2 := time.ParseDuration(rs)
	if err1 != nil || err2 != nil || mtbf <= 0 || mttr <= 0 {
		return Flap{}, fmt.Errorf("want positive Go durations MTBF:MTTR, got %q:%q", ms, rs)
	}
	fl := Flap{MTBF: des.Time(mtbf.Nanoseconds()), MTTR: des.Time(mttr.Nanoseconds())}
	kind, target, ok := strings.Cut(body, ":")
	if !ok {
		return Flap{}, fmt.Errorf("want link:A-B or router:ID before @")
	}
	switch kind {
	case "router":
		r, ok := parseRouter(target)
		if !ok {
			return Flap{}, fmt.Errorf("bad router ID %q", target)
		}
		fl.IsRouter = true
		fl.Router = r
	case "link":
		a, b, err := parsePair(target)
		if err != nil {
			return Flap{}, fmt.Errorf("bad link %q: %v", target, err)
		}
		fl.A, fl.B = a, b
	default:
		return Flap{}, fmt.Errorf("unknown target kind %q (want link or router)", kind)
	}
	return fl, nil
}
