// Package cliutil centralizes flag parsing and validation for the cmd/
// binaries. Every parser returns a plain value plus a one-line error that
// names the valid choices, so each command reports flag mistakes identically
// and a single table-driven test covers the whole surface; none of them
// panics or exits. Usagef is the one place that terminates: commands route
// flag-validation failures through it to exit with the conventional usage
// status 2, keeping status 1 for runtime failures.
package cliutil

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dragonfly/internal/chaos"
	"dragonfly/internal/faults"
	"dragonfly/internal/mapping"
	"dragonfly/internal/par"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
	"dragonfly/internal/workload"
)

// Usagef reports a flag-validation error on stderr as "cmd: message" and
// exits with status 2 (the usage exit code, distinct from runtime failures).
func Usagef(cmd, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, cmd+": "+format+"\n", args...)
	os.Exit(2)
}

// Machine resolves the -topo flag to a machine preset, applying fallback
// when it is empty.
func Machine(topo, fallback string) (topology.Machine, error) {
	name := topo
	if name == "" {
		name = fallback
	}
	m, err := topology.Preset(name)
	if err != nil {
		return nil, fmt.Errorf("machine %q: want %s", name, strings.Join(topology.PresetNames(), ", "))
	}
	return m, nil
}

// App parses one application name against the single built-in registry —
// the paper's flat miniapps plus the dependency-graph generators — so every
// command's -app grammar (and its unknown-app error) shows one app set.
func App(s string) (string, error) {
	name, err := trace.ParseApp(s)
	if err != nil {
		return "", fmt.Errorf("app %q: want %s", strings.TrimSpace(s), strings.Join(trace.Apps(), ", "))
	}
	return name, nil
}

// AppChoices lists the built-in applications for -app and -apps flag help,
// from the same registry as App: the paper's flat miniapp traces, then the
// dependency-graph generators.
func AppChoices() string {
	var flat, graph []string
	for _, name := range trace.Apps() {
		if trace.IsGraphApp(name) {
			graph = append(graph, name)
		} else {
			flat = append(flat, name)
		}
	}
	return strings.Join(flat, ", ") + " (the paper's miniapps, flat traces), or " +
		strings.Join(graph, ", ") + " (dependency-graph generators)"
}

// Apps parses a comma-separated application sweep list.
func Apps(csv string) ([]string, error) { return list(csv, App) }

// list parses each element of a comma-separated sweep list with parse,
// failing with the first element's error.
func list[T any](csv string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, s := range strings.Split(csv, ",") {
		v, err := parse(s)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Placement parses one placement policy name.
func Placement(s string) (placement.Policy, error) {
	p, err := placement.Parse(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("placement %q: want cont, cab, chas, rotr, or rand", strings.TrimSpace(s))
	}
	return p, nil
}

// Placements parses a comma-separated placement sweep list.
func Placements(csv string) ([]placement.Policy, error) { return list(csv, Placement) }

// Routing parses one routing policy name. The error enumerates the full
// built-in policy set, so a typo'd -routing always shows what exists.
func Routing(s string) (routing.Mechanism, error) {
	m, err := routing.ParseMechanism(strings.TrimSpace(s))
	if err != nil {
		names := routing.PolicyNames()
		return 0, fmt.Errorf("routing %q: want %s, or %s",
			strings.TrimSpace(s), strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
	}
	return m, nil
}

// Routings parses a comma-separated routing sweep list.
func Routings(csv string) ([]routing.Mechanism, error) { return list(csv, Routing) }

// Mapping parses a task-mapping policy name.
func Mapping(s string) (mapping.Policy, error) {
	p, err := mapping.Parse(strings.TrimSpace(s))
	if err != nil {
		var names []string
		for _, m := range mapping.All() {
			names = append(names, m.String())
		}
		return 0, fmt.Errorf("mapping %q: want %s", strings.TrimSpace(s), strings.Join(names, ", "))
	}
	return p, nil
}

// Background parses the -background flag: on reports whether synthetic
// interference is enabled at all ("none" disables it).
func Background(s string) (kind workload.BackgroundKind, on bool, err error) {
	switch strings.TrimSpace(s) {
	case "none", "":
		return 0, false, nil
	case "uniform":
		return workload.UniformRandom, true, nil
	case "bursty":
		return workload.Bursty, true, nil
	}
	return 0, false, fmt.Errorf("background %q: want none, uniform, or bursty", strings.TrimSpace(s))
}

// ScaleShape parses the -scale-shape flag into a synthesized big machine:
// "family" or "family:routers" (e.g. "df:20000"), where an explicit
// ":routers" suffix overrides the routers argument (the -routers flag).
func ScaleShape(s string, routers int) (topology.Machine, error) {
	name := strings.TrimSpace(s)
	if base, count, ok := strings.Cut(name, ":"); ok {
		n, err := strconv.Atoi(strings.TrimSpace(count))
		if err != nil {
			return nil, fmt.Errorf("scale shape %q: router count %q is not a number (want e.g. df:20000)", s, count)
		}
		name, routers = strings.TrimSpace(base), n
	}
	m, err := topology.ScaleConfig(name, routers)
	if err != nil {
		return nil, fmt.Errorf("scale shape %q: %s (want df or dfplus, optionally :ROUTERS, with -routers >= 1)",
			s, strings.TrimPrefix(err.Error(), "topology: "))
	}
	return m, nil
}

// ScaleShapes parses a comma-separated -scale-shape sweep list.
func ScaleShapes(csv string, routers int) ([]topology.Machine, error) {
	return list(csv, func(s string) (topology.Machine, error) { return ScaleShape(s, routers) })
}

// BuildWorkers validates the -build-workers flag and installs it as the
// machine-construction worker count (0 restores the default of all CPUs),
// returning the effective pool size.
func BuildWorkers(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("build workers %d: want 0 (all CPUs) or a positive count", n)
	}
	par.SetWorkers(n)
	return par.Workers(), nil
}

// Mappings parses a comma-separated task-mapping sweep list.
func Mappings(csv string) ([]mapping.Policy, error) { return list(csv, Mapping) }

// Shard parses the -shard flag: "i/n" selects shard i of n (0 <= i < n);
// the empty string means unsharded (0 of 1).
func Shard(s string) (shard, numShards int, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, 1, nil
	}
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("shard %q: want I/N (e.g. 0/4)", s)
	}
	shard, err1 := strconv.Atoi(strings.TrimSpace(i))
	numShards, err2 := strconv.Atoi(strings.TrimSpace(n))
	if err1 != nil || err2 != nil || numShards < 1 || shard < 0 || shard >= numShards {
		return 0, 0, fmt.Errorf("shard %q: want I/N with 0 <= I < N", s)
	}
	return shard, numShards, nil
}

// Int64List parses a comma-separated integer sweep list (e.g. -seeds).
func Int64List(flagName, csv string) ([]int64, error) {
	return list(csv, func(s string) (int64, error) {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s %q: %q is not an integer", flagName, csv, strings.TrimSpace(s))
		}
		return v, nil
	})
}

// FloatList parses a comma-separated float sweep list (e.g. -msg-scales).
func FloatList(flagName, csv string) ([]float64, error) {
	return list(csv, func(s string) (float64, error) {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return 0, fmt.Errorf("%s %q: %q is not a number", flagName, csv, strings.TrimSpace(s))
		}
		return v, nil
	})
}

// FaultSpecs parses a semicolon-separated fault-spec sweep list (each
// element uses the FaultSpec grammar, whose clauses are comma-separated;
// "none" or an empty element means the healthy fabric). An empty string
// yields the single-element healthy sweep, so a cross product over the
// result always includes the undegraded machine exactly once.
func FaultSpecs(text string, seed int64) ([]*faults.Spec, error) {
	var specs []*faults.Spec
	for _, s := range strings.Split(text, ";") {
		s = strings.TrimSpace(s)
		if s == "none" {
			s = ""
		}
		sp, err := FaultSpec(s, seed)
		if err != nil {
			return nil, err
		}
		if sp.Empty() {
			sp = nil
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// FaultClauses lists the -faults grammar's clauses (see faults.ParseSpec)
// for flag help and parse errors.
const FaultClauses = "global=FRAC, local=FRAC, routers=K, router=ID, link=A-B, group=G, bundle=G1-G2, " +
	"flap=link:A-B@MTBF:MTTR or router:ID@MTBF:MTTR, until=DUR, " +
	"fail|repair=link:A-B|router:ID|group:G|bundle:G1-G2@DUR, seed=N"

// FaultSpec parses the -faults grammar (see faults.ParseSpec) and applies
// the -fault-seed override when seed is non-zero. An empty string yields the
// empty spec, which downstream layers skip entirely.
func FaultSpec(text string, seed int64) (*faults.Spec, error) {
	s, err := faults.ParseSpec(text)
	if err != nil {
		return nil, fmt.Errorf("faults %q: %s (clauses: %s)", text, strings.TrimPrefix(err.Error(), "faults: "), FaultClauses)
	}
	if seed != 0 {
		s.Seed = seed
	}
	return s, nil
}

// Retries validates the -retries flag: bounded re-attempts per failing
// sweep cell before the cell's error (or quarantine) stands.
func Retries(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("retries %d: want 0 (fail on first error) or a positive re-attempt count", n)
	}
	return n, nil
}

// BurstDivisor validates the -burst-divisor flag: 0 selects the scale's
// default bursty-background volume, a positive value divides each node's
// bursty fan-out.
func BurstDivisor(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("burst divisor %d: want 0 (the scale default) or a positive divisor", n)
	}
	return n, nil
}

// JobTimeout validates the -job-timeout flag: the per-cell wall-clock
// budget, 0 disabling it.
func JobTimeout(d time.Duration) (time.Duration, error) {
	if d < 0 {
		return 0, fmt.Errorf("job timeout %v: want 0 (no wall-clock budget) or a positive duration", d)
	}
	return d, nil
}

// QuarantineLimit validates the -quarantine-limit flag: how many poisoned
// cells a sweep tolerates (quarantining each and continuing) before it
// fails outright; 0 disables quarantine so the first exhausted cell is
// fatal.
func QuarantineLimit(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("quarantine limit %d: want 0 (quarantine disabled) or a positive poisoned-cell budget", n)
	}
	return n, nil
}

// ChaosSpec parses the -chaos fault-injection grammar (see chaos.ParseSpec).
func ChaosSpec(text string) (*chaos.Spec, error) {
	s, err := chaos.ParseSpec(text)
	if err != nil {
		return nil, fmt.Errorf("chaos %q: %s (clauses: SITE=PROB for sites store.read, store.write, worker.panic, worker.kill, sim.stall; max=K, seed=N)",
			text, strings.TrimPrefix(err.Error(), "chaos: "))
	}
	return s, nil
}
