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
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"dragonfly/internal/des"
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

	// Fail fails this equipment explicitly, whatever its order: String
	// renders router, link, group, then bundle clauses.
	Fail []Target

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

// Kind is a failure domain: a Target's kind says what its IDs name.
type Kind uint8

// The four failure domains. The zero Kind names none, so a Target must say
// which it is.
const (
	Router Kind = iota + 1 // one router, ID A
	Link                   // the wired link(s) between routers A and B
	Group                  // every router of group A: a correlated outage (power domain, cooling loop)
	Bundle                 // every global cable between groups A and B: a cut cable bundle
)

var kindNames = [...]string{Router: "router", Link: "link", Group: "group", Bundle: "bundle"}

func (k Kind) String() string {
	if k >= Router && k <= Bundle {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// pair reports whether the kind names two IDs, A-B.
func (k Kind) pair() bool { return k == Link || k == Bundle }

// Target is the equipment one fault takes down: a router or group A, or
// the link between routers A and B, or the cable bundle between groups A
// and B. A link fails the local link if the pair is locally connected,
// otherwise every parallel global channel between the two routers.
type Target struct {
	Kind Kind
	A, B int
}

// String renders the target as events and flaps name it: router:7,
// link:3-40, group:1, bundle:0-2.
func (t Target) String() string { return t.Kind.String() + ":" + t.ids() }

func (t Target) ids() string {
	if t.Kind.pair() {
		return strconv.Itoa(t.A) + "-" + strconv.Itoa(t.B)
	}
	return strconv.Itoa(t.A)
}

// Flap is one flapping element: a router or a link that fails and repairs
// repeatedly. MTBF is the mean up-time between failures, MTTR the mean
// down-time; both must be positive.
type Flap struct {
	Target Target
	MTBF   des.Time
	MTTR   des.Time
}

func (f Flap) String() string {
	return fmt.Sprintf("flap=%v@%s:%s", f.Target, time.Duration(f.MTBF), time.Duration(f.MTTR))
}

// Event is a scheduled fault transition: at time At, Target fails (or is
// repaired).
type Event struct {
	At     des.Time
	Repair bool
	Target Target
}

func (e Event) String() string {
	verb := "fail"
	if e.Repair {
		verb = "repair"
	}
	return fmt.Sprintf("%s=%v@%s", verb, e.Target, time.Duration(e.At))
}

// Empty reports whether the spec fails nothing, statically or dynamically.
func (s *Spec) Empty() bool {
	if s == nil {
		return true
	}
	return s.GlobalFrac == 0 && s.LocalFrac == 0 && s.Routers == 0 &&
		len(s.Fail) == 0 && len(s.Events) == 0 && len(s.Flaps) == 0
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
	fail := slices.Clone(s.Fail)
	slices.SortStableFunc(fail, func(a, b Target) int { return int(a.Kind) - int(b.Kind) })
	for _, t := range fail {
		parts = append(parts, t.Kind.String()+"="+t.ids())
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
//	fail=TARGET@DUR      schedule TARGET's failure at simulated time DUR,
//	                     TARGET being router:ID, link:A-B, group:G or
//	                     bundle:G1-G2
//	repair=TARGET@DUR    schedule TARGET's repair
//	flap=TARGET@MTBF:MTTR  flap a router or link TARGET: seeded fail/repair
//	                     cycles with exponential up-times (mean MTBF) and
//	                     down-times (mean MTTR)
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
		case "router", "link", "group", "bundle":
			t, err := parseTarget(key, val)
			if err != nil {
				return nil, fmt.Errorf("faults: %s=%q: %v", key, val, err)
			}
			s.Fail = append(s.Fail, t)
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

// parseTarget reads a target of the named kind from its IDs: ID for a
// router or group, A-B for a link or bundle. IDs are non-negative; router
// IDs fit topology.RouterID, so a rendering reads back as the same ID, and
// a pair's two IDs differ.
func parseTarget(kind, ids string) (Target, error) {
	k := Router
	for k <= Bundle && kindNames[k] != kind {
		k++
	}
	if k > Bundle {
		return Target{}, fmt.Errorf("unknown target kind %q (want router, link, group, or bundle)", kind)
	}
	bits := strconv.IntSize
	if k == Router || k == Link {
		bits = 32
	}
	id := func(s string) (int, bool) {
		n, err := strconv.ParseInt(s, 10, bits)
		return int(n), err == nil && n >= 0
	}
	if !k.pair() {
		a, ok := id(ids)
		if !ok {
			return Target{}, fmt.Errorf("want a %s ID", kind)
		}
		return Target{Kind: k, A: a}, nil
	}
	as, bs, _ := strings.Cut(ids, "-")
	a, okA := id(as)
	b, okB := id(bs)
	switch {
	case !okA || !okB:
		return Target{}, fmt.Errorf("want a %s as A-B", kind)
	case a == b:
		return Target{}, fmt.Errorf("the two ends of a %s are equal", kind)
	}
	return Target{Kind: k, A: a, B: b}, nil
}

// parseTimed splits TARGET@REST, where TARGET is KIND:IDS, and parses the
// target.
func parseTimed(val, form string) (Target, string, error) {
	body, rest, ok := strings.Cut(val, "@")
	if !ok {
		return Target{}, "", fmt.Errorf("want %s", form)
	}
	kind, ids, ok := strings.Cut(body, ":")
	if !ok {
		return Target{}, "", fmt.Errorf("want KIND:ID or KIND:A-B before @")
	}
	t, err := parseTarget(kind, ids)
	return t, rest, err
}

// parseEvent decodes TARGET@TIME.
func parseEvent(val string, repair bool) (Event, error) {
	t, at, err := parseTimed(val, "TARGET@TIME (e.g. link:3-40@200us)")
	if err != nil {
		return Event{}, err
	}
	d, err := time.ParseDuration(at)
	if err != nil || d < 0 {
		return Event{}, fmt.Errorf("bad time %q: want a Go duration", at)
	}
	return Event{At: des.Time(d.Nanoseconds()), Repair: repair, Target: t}, nil
}

// parseFlap decodes TARGET@MTBF:MTTR, where TARGET is a router or a link
// and both durations are positive.
func parseFlap(val string) (Flap, error) {
	t, times, err := parseTimed(val, "TARGET@MTBF:MTTR (e.g. link:3-40@500us:50us)")
	if err != nil {
		return Flap{}, err
	}
	if t.Kind != Router && t.Kind != Link {
		return Flap{}, fmt.Errorf("a flap takes a router or a link, not a %v", t.Kind)
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
	return Flap{Target: t, MTBF: des.Time(mtbf.Nanoseconds()), MTTR: des.Time(mttr.Nanoseconds())}, nil
}
