// Package farm is the sweep-execution layer of the simulator: it canonically
// encodes full run configurations, hashes them into content addresses, keeps
// each simulated core.Result as an integrity-checked entry of an on-disk
// content-addressed store, and executes arbitrary config sets sharded across
// workers with resumable, cache-skipping semantics. It is the data factory
// for the cross-product studies (app x placement x routing x faults x
// topology) and for the surrogate-model training corpus: an interrupted
// sweep re-invoked over the same store re-pays only the missing cells.
//
// The package sits between core (which runs one simulation) and the
// experiments/CLI layers (which decide what to sweep); it knows nothing
// about figures or reports. Farm is the simulator's only multi-cell
// executor: dfsim batches, figure grids, and dffarm sweeps all run through
// one, with or without a store.
package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"dragonfly/internal/core"
)

// encodingVersion is bumped whenever the canonical encoding changes meaning,
// so stale store entries become unreachable instead of silently wrong.
const encodingVersion = 1

// coveredConfigFields, coveredParamsFields, coveredRouteFields, and
// coveredBackgroundFields list the struct fields Encode renders. The
// coverage tests reflect over the real structs and fail when a field is
// added without being listed here (and encoded below) — the failure mode
// being defended against is a silent wrong-result cache hit, where two
// configs differing in the new field collapse to one address.
var (
	coveredConfigFields = map[string]bool{
		"Topology": true, "Params": true, "Placement": true, "Routing": true,
		"Mapping": true, "Trace": true, "Graph": true, "MsgScale": true,
		"Background": true, "Seed": true, "Faults": true, "MaxSimTime": true,
		"WatchdogEvents": true, "WatchdogTime": true, "Audit": true,
	}
	coveredParamsFields = map[string]bool{
		"PacketBytes": true, "TerminalBandwidth": true, "LocalBandwidth": true,
		"GlobalBandwidth": true, "TerminalLatency": true, "LocalLatency": true,
		"GlobalLatency": true, "TerminalVCBuffer": true, "LocalVCBuffer": true,
		"GlobalVCBuffer": true, "Route": true, "NoPacketPool": true,
	}
	coveredRouteFields = map[string]bool{
		"Gateway": true, "ValiantCandidates": true, "MinimalBias": true,
		"NoCache": true, "Health": true, "Policy": true,
	}
	coveredBackgroundFields = map[string]bool{
		"Kind": true, "MsgBytes": true, "Interval": true, "FanOut": true,
	}
)

// Encode renders a run configuration into its canonical text form: one
// sorted-stable "key=value" line per semantically meaningful field. Two
// configs produce the same encoding exactly when core.Run would produce the
// same result for both. Hashed (see Address), the encoding is the content
// address: the key of a Farm's in-memory memo and of the on-disk store.
//
// Uncacheable configurations fail loudly instead of aliasing: a nil trace or
// machine, or a pre-installed Route.Health view (whose live fault state has
// no canonical identity — declare faults through Config.Faults instead).
// Workload content digests are computed once per trace or graph object,
// which therefore must not change once encoded. A custom Route.Policy is
// identified by its Name(); distinct policies must use distinct names.
func Encode(cfg core.Config) (string, error) {
	if cfg.Trace == nil && cfg.Graph == nil {
		return "", fmt.Errorf("farm: config has no workload")
	}
	if cfg.Topology == nil {
		return "", fmt.Errorf("farm: config has no machine")
	}
	if cfg.Params.Route.Health != nil {
		return "", fmt.Errorf("farm: config installs Route.Health directly; declare faults via Config.Faults to stay cacheable")
	}

	var b strings.Builder
	b.Grow(640)
	fmt.Fprintf(&b, "dffarm-config v%d\n", encodingVersion)
	fmt.Fprintf(&b, "machine=%s\n", cfg.Topology.CanonicalSpec())
	fmt.Fprintf(&b, "placement=%s\n", cfg.Placement)
	fmt.Fprintf(&b, "routing=%s\n", cfg.Routing)
	fmt.Fprintf(&b, "mapping=%s\n", cfg.Mapping)
	// Graph workloads key on their own lines (the executor ignores Trace
	// when Graph is set); flat-trace lines are untouched so every
	// pre-graph-IR address stays reachable.
	if cfg.Graph != nil {
		fmt.Fprintf(&b, "graph.app=%s\n", cfg.Graph.App)
		fmt.Fprintf(&b, "graph.ranks=%d\n", cfg.Graph.NumRanks())
		fmt.Fprintf(&b, "graph.digest=%016x\n", cfg.Graph.Digest())
	} else {
		fmt.Fprintf(&b, "trace.app=%s\n", cfg.Trace.App)
		fmt.Fprintf(&b, "trace.ranks=%d\n", cfg.Trace.NumRanks())
		fmt.Fprintf(&b, "trace.digest=%016x\n", cfg.Trace.Digest())
	}
	// The replay layer treats any scale <= 0 as 1, so the encoder folds
	// them together: MsgScale 0 and 1 are one configuration, one address.
	msgScale := cfg.MsgScale
	if msgScale <= 0 {
		msgScale = 1
	}
	fmt.Fprintf(&b, "msg_scale=%s\n", fmtFloat(msgScale))

	p := cfg.Params
	fmt.Fprintf(&b, "params.packet_bytes=%d\n", p.PacketBytes)
	fmt.Fprintf(&b, "params.bw=%s,%s,%s\n",
		fmtFloat(p.TerminalBandwidth), fmtFloat(p.LocalBandwidth), fmtFloat(p.GlobalBandwidth))
	fmt.Fprintf(&b, "params.lat=%d,%d,%d\n",
		int64(p.TerminalLatency), int64(p.LocalLatency), int64(p.GlobalLatency))
	fmt.Fprintf(&b, "params.vcbuf=%d,%d,%d\n",
		p.TerminalVCBuffer, p.LocalVCBuffer, p.GlobalVCBuffer)
	fmt.Fprintf(&b, "params.no_packet_pool=%t\n", p.NoPacketPool)

	ro := p.Route
	fmt.Fprintf(&b, "route.gateway=%d\n", int(ro.Gateway))
	fmt.Fprintf(&b, "route.valiant_candidates=%d\n", ro.ValiantCandidates)
	fmt.Fprintf(&b, "route.minimal_bias=%d\n", ro.MinimalBias)
	fmt.Fprintf(&b, "route.no_cache=%t\n", ro.NoCache)
	// Constant since the table-layout option went: banked addresses stay reachable.
	b.WriteString("route.compact_tables=false\n")
	if ro.Policy != nil {
		fmt.Fprintf(&b, "route.policy=%s\n", ro.Policy().Name())
	} else {
		b.WriteString("route.policy=\n")
	}

	if cfg.Background != nil {
		bg := cfg.Background
		fmt.Fprintf(&b, "background=%s,bytes=%d,interval=%d,fanout=%d\n",
			bg.Kind, bg.MsgBytes, int64(bg.Interval), bg.FanOut)
	} else {
		b.WriteString("background=none\n")
	}
	// Spec.String renders every fault field (fractions, explicit equipment,
	// dynamic events, seed) in canonical clause order; empty specs and nil
	// collapse to the same line, matching core.Run's behavior of skipping
	// the fault machinery entirely for both.
	fmt.Fprintf(&b, "faults=%s\n", cfg.Faults.String())

	fmt.Fprintf(&b, "seed=%d\n", cfg.Seed)
	fmt.Fprintf(&b, "max_sim_time=%d\n", int64(cfg.MaxSimTime))
	fmt.Fprintf(&b, "watchdog=%d,%d\n", cfg.WatchdogEvents, int64(cfg.WatchdogTime))
	fmt.Fprintf(&b, "audit=%t\n", cfg.Audit)
	return b.String(), nil
}

// fmtFloat renders a float64 in its shortest exact form.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// AddressOf hashes a canonical encoding into its content address: 64 hex
// characters of SHA-256. The hash is over the full encoding text, so the
// encoding version line partitions addresses across format revisions.
func AddressOf(encoding string) string {
	sum := sha256.Sum256([]byte(encoding))
	return hex.EncodeToString(sum[:])
}

// Address encodes and hashes a configuration in one step.
func Address(cfg core.Config) (string, error) {
	enc, err := Encode(cfg)
	if err != nil {
		return "", err
	}
	return AddressOf(enc), nil
}
