// Command dfvalidate reproduces the methodology of the CODES dragonfly
// validation study the paper builds on (Sec. II): ping-pong latency checks
// against the analytic zero-load model, and a bisection-pairing bandwidth
// test, on the simulated machine.
//
// Examples:
//
//	dfvalidate
//	dfvalidate -topo mini -pairs 100
//	dfvalidate -bisect-bytes 1048576 -routing adp
//	dfvalidate -topo mini -faults global=0.3,routers=2,seed=5
//	dfvalidate -topo mini -faults fail=group:1@1us,flap=link:0-1@10us:5us
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"dragonfly"
	"dragonfly/internal/cliutil"
	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/validate"
)

func main() {
	var (
		topoName = flag.String("topo", "", "machine preset: theta, mini, dfplus, or dfplus-mini (default theta)")
		pairs    = flag.Int("pairs", 50, "ping-pong node pairs to sample")
		bytes    = flag.Int("bytes", 4096, "ping payload (single packet)")
		bisect   = flag.Int64("bisect-bytes", 512*1024, "bytes per bisection pair")
		route    = flag.String("routing", "min", "bisection routing: min, adp, or qadaptive")
		seed     = flag.Int64("seed", 1, "random seed")
		maxError = flag.Float64("max-error", 0.001, "fail if ping relative error exceeds this")
		faultStr = flag.String("faults", "", "additionally validate fault-aware routing on this degraded fabric, at its static failures and after each time its events and flaps change it: comma clauses "+cliutil.FaultClauses)
		faultSd  = flag.Int64("fault-seed", 0, "override the fault spec's seed= clause (0 keeps the spec's own seed)")

		scaleSmoke  = flag.Bool("scale-smoke", false, "instead of the validation study, shake out synthesized big machines (see -scale-shape)")
		scaleShape  = flag.String("scale-shape", "df,dfplus", "comma-separated scale-smoke shapes, family[:routers]")
		routers     = flag.Int("routers", 20000, "router count for -scale-shape entries without an explicit :ROUTERS")
		scalePairs  = flag.Int("scale-pairs", 1000, "sampled validated route pairs per scale-smoke shape")
		budgetMB    = flag.Int64("mem-budget-mb", 4096, "scale-smoke fails if OS-visible memory exceeds this many MB")
		buildWorker = flag.Int("build-workers", 0, "machine-construction worker count; 0 = all CPUs")
	)
	flag.Parse()
	if _, err := cliutil.BuildWorkers(*buildWorker); err != nil {
		cliutil.Usagef("dfvalidate", "%v", err)
	}
	if *scaleSmoke {
		ms, err := cliutil.ScaleShapes(*scaleShape, *routers)
		if err != nil {
			cliutil.Usagef("dfvalidate", "%v", err)
		}
		if err := runScaleSmoke(ms, *scalePairs, *budgetMB); err != nil {
			fatalf("%v", err)
		}
		fmt.Println("scale smoke PASSED")
		return
	}

	m, err := cliutil.Machine(*topoName, "theta")
	if err != nil {
		cliutil.Usagef("dfvalidate", "%v", err)
	}
	fspec, err := cliutil.FaultSpec(*faultStr, *faultSd)
	if err != nil {
		cliutil.Usagef("dfvalidate", "%v", err)
	}
	params := dragonfly.DefaultParams()
	name := m.Label()

	fmt.Printf("ping-pong: %d pairs x %d B on %s...\n", *pairs, *bytes, name)
	ping, err := validate.PingPong(m, params, *bytes, *pairs, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	byHops := map[int][]validate.PingSample{}
	for _, s := range ping.Samples {
		byHops[s.Routers] = append(byHops[s.Routers], s)
	}
	for h := 1; h <= 6; h++ {
		ss := byHops[h]
		if len(ss) == 0 {
			continue
		}
		var meas, pred float64
		for _, s := range ss {
			meas += float64(s.Measured)
			pred += float64(s.Predicted)
		}
		fmt.Printf("  %d routers: %3d samples  mean measured %8.1f ns  predicted %8.1f ns\n",
			h, len(ss), meas/float64(len(ss)), pred/float64(len(ss)))
	}
	fmt.Printf("  max relative error vs analytic model: %.6f (threshold %.4f)\n", ping.MaxRelError, *maxError)
	if ping.MaxRelError > *maxError {
		fatalf("ping-pong validation FAILED")
	}

	mech, err := cliutil.Routing(*route)
	if err != nil {
		cliutil.Usagef("dfvalidate", "%v", err)
	}
	fmt.Printf("bisection pairing: %d B/pair under %s routing...\n", *bisect, mech)
	bi, err := validate.Bisection(m, params, mech, *bisect, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	const GiB = 1024 * 1024 * 1024
	fmt.Printf("  %d pairs, makespan %v\n", bi.Pairs, bi.Makespan)
	fmt.Printf("  aggregate bandwidth %.2f GiB/s (injection bound %.2f GiB/s, utilization %.1f%%)\n",
		bi.AchievedBandwidth/GiB, bi.InjectionBound/GiB, 100*bi.Utilization)

	if !fspec.Empty() {
		if _, err := validateFaults(m, fspec, *pairs, *seed); err != nil {
			fatalf("%v", err)
		}
	}
	fmt.Println("validation PASSED")
}

// faultState is one state of a fault timeline that validateFaults routed
// under: the time it begins (0 for the static failures alone), the routers
// down in it, and how many sampled pairs the mechanism routed.
type faultState struct {
	At       des.Time
	Mech     routing.Mechanism
	Down     []topology.RouterID
	Routable int
}

// validateFaults checks the fault-aware routing contract at every state of
// the degraded machine's timeline: the static failures, then the state
// after each distinct event time, its events applied in order. At each
// state, over sampled node pairs and both mechanisms, every computed route
// must pass the physical/VC validator and cross only live equipment
// (deadHop), and every failure must be the typed ErrUnreachable — never a
// panic or an unexplained error. Each mechanism walks a freshly resolved
// set. It returns the states checked, by mechanism, in time order.
func validateFaults(m topology.Machine, spec *faults.Spec, pairs int, seed int64) ([]faultState, error) {
	ic, err := m.Build()
	if err != nil {
		return nil, err
	}
	var states []faultState
	for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
		set, err := faults.Resolve(spec, ic)
		if err != nil {
			return nil, err
		}
		if mech == routing.Minimal {
			fmt.Printf("degraded fabric: %s\n", set.Describe())
		}
		rng := des.NewRNG(seed, "dfvalidate/faults")
		ch := routing.NewChooserOpts(ic, mech, rng.Stream("route"), nil, routing.Options{Health: set})
		src, dst := make([]topology.NodeID, pairs), make([]topology.NodeID, pairs)
		for i := range src {
			src[i] = topology.NodeID(rng.Intn(ic.NumNodes()))
			dst[i] = topology.NodeID(rng.Intn(ic.NumNodes()))
			if src[i] == dst[i] {
				dst[i] = topology.NodeID((int(dst[i]) + 1) % ic.NumNodes())
			}
		}
		check := func(at des.Time) error {
			st := faultState{At: at, Mech: mech, Down: set.DownRouters()}
			for i := range src {
				p, err := ch.TryRoute(src[i], dst[i])
				if err != nil {
					if !errors.Is(err, routing.ErrUnreachable) {
						return fmt.Errorf("fault-aware %v route %d->%d at %v: untyped failure: %v", mech, src[i], dst[i], at, err)
					}
					continue
				}
				err = routing.Validate(ic, ic.RouterOfNode(src[i]), ic.RouterOfNode(dst[i]), p)
				if err == nil {
					err = deadHop(ic, set, p)
				}
				ch.Release(p)
				if err != nil {
					return fmt.Errorf("fault-aware %v route %d->%d at %v invalid: %v", mech, src[i], dst[i], at, err)
				}
				st.Routable++
			}
			states = append(states, st)
			return nil
		}
		first := len(states)
		err = check(0)
		events := set.Events()
		for i := 0; err == nil && i < len(events); {
			at := events[i].At
			for ; i < len(events) && events[i].At == at; i++ {
				set.Apply(events[i])
			}
			ch.RebuildHealth()
			err = check(at)
		}
		ch.Close()
		if err != nil {
			return nil, err
		}
		fewest, most := pairs, 0
		for _, st := range states[first:] {
			fewest, most = min(fewest, st.Routable), max(most, st.Routable)
		}
		fmt.Printf("  %v routing: fault states %d, sampled pairs live-routable %d-%d of %d, all routes valid\n",
			mech, len(states)-first, fewest, most, pairs)
	}
	return states, nil
}

// deadHop reports the first hop of p that crosses failed equipment: a down
// router, a down local link, or a global hop with no live channel between
// its two routers.
func deadHop(ic topology.Interconnect, set *faults.Set, p routing.Path) error {
	for _, h := range p.Hops {
		switch {
		case !set.RouterUp(h.From) || !set.RouterUp(h.To):
			return fmt.Errorf("traverses a failed router (%d->%d)", h.From, h.To)
		case h.Kind == routing.Local && !set.LocalLinkUp(h.From, h.To):
			return fmt.Errorf("traverses failed local link %d-%d", h.From, h.To)
		case h.Kind == routing.Global && !globalChannelUp(ic, set, h.From, h.To):
			return fmt.Errorf("traverses global hop %d->%d, which has no live channel", h.From, h.To)
		}
	}
	return nil
}

// globalChannelUp reports whether some global channel from a to b is live.
func globalChannelUp(ic topology.Interconnect, set *faults.Set, a, b topology.RouterID) bool {
	for _, gw := range ic.Gateways(ic.GroupOfRouter(a), ic.GroupOfRouter(b)) {
		if gw.Router == a && gw.Peer == b && set.GlobalLinkUp(a, gw.Port) {
			return true
		}
	}
	return false
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dfvalidate: "+format+"\n", args...)
	os.Exit(1)
}
