package farm

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"dragonfly/internal/core"
)

// CorpusColumns is the header of the training-corpus CSV: configuration
// features first (what a surrogate model would take as input), then the
// measured targets. The address column keys every row back to its store
// entry, so a corpus can always be re-derived or spot-checked.
var CorpusColumns = []string{
	// features
	"address", "machine", "placement", "routing", "mapping",
	"app", "ranks", "msg_scale",
	"background", "bg_bytes", "bg_interval_ns", "bg_fanout",
	"faults", "seed",
	// targets
	"completed", "max_comm_ms", "median_comm_ms", "mean_comm_ms",
	"mean_hops", "duration_ns", "events",
	"local_sat_ms", "global_sat_ms", "local_mib", "global_mib",
	"dropped_packets", "dropped_bytes", "unreachable",
}

// CorpusRow flattens one (config, result) pair into CSV cells matching
// CorpusColumns. Formatting is deterministic (shortest-exact floats), so a
// corpus regenerated from the same store is byte-identical.
func CorpusRow(cfg core.Config, res *core.Result) ([]string, error) {
	enc, err := Encode(cfg)
	if err != nil {
		return nil, err
	}

	bgKind, bgBytes, bgInterval, bgFan := "none", int64(0), int64(0), 0
	if cfg.Background != nil {
		bgKind = cfg.Background.Kind.String()
		bgBytes = cfg.Background.MsgBytes
		bgInterval = int64(cfg.Background.Interval)
		bgFan = cfg.Background.FanOut
	}

	comm := res.CommTimesMs()
	unreach := 0
	if res.RouteErr != nil {
		unreach = 1
	}
	row := []string{
		AddressOf(enc), cfg.Topology.CanonicalSpec(),
		cfg.Placement.String(), cfg.Routing.String(), cfg.Mapping.String(),
		cfg.WorkloadApp(), strconv.Itoa(cfg.WorkloadRanks()), cf(orOne(cfg.MsgScale)),
		bgKind, strconv.FormatInt(bgBytes, 10), strconv.FormatInt(bgInterval, 10), strconv.Itoa(bgFan),
		quoteFaults(cfg.Faults.String()), strconv.FormatInt(cfg.Seed, 10),

		strconv.FormatBool(res.Completed),
		cf(maxOf(comm)), cf(medianOf(comm)), cf(meanOf(comm)),
		cf(meanOf(res.AvgHops)),
		strconv.FormatInt(int64(res.Duration), 10), strconv.FormatUint(res.Events, 10),
		cf(sumOf(res.LocalSaturation(false))), cf(sumOf(res.GlobalSaturation(false))),
		cf(sumOf(res.LocalTraffic(false))), cf(sumOf(res.GlobalTraffic(false))),
		strconv.FormatInt(res.DroppedPackets, 10), strconv.FormatInt(res.DroppedBytes, 10),
		strconv.Itoa(unreach),
	}
	return row, nil
}

// WriteCorpus emits the flat training-corpus CSV for a job: one row per
// config with a result, in config order. Cells without results (another
// shard's slice, or failed runs) are skipped and counted in the return —
// a complete corpus comes from a resume pass over a fully banked store,
// where every cell replays as a hit.
func WriteCorpus(w io.Writer, cfgs []core.Config, results []*core.Result) (rows, skipped int, err error) {
	var b strings.Builder
	b.WriteString(strings.Join(CorpusColumns, ","))
	b.WriteByte('\n')
	for i, cfg := range cfgs {
		if results[i] == nil {
			skipped++
			continue
		}
		row, err := CorpusRow(cfg, results[i])
		if err != nil {
			return rows, skipped, fmt.Errorf("farm: corpus cell %d: %w", i, err)
		}
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
		rows++
	}
	_, err = io.WriteString(w, b.String())
	return rows, skipped, err
}

// quoteFaults makes the fault-spec clause list (which contains commas) a
// single CSV cell.
func quoteFaults(s string) string {
	if s == "" {
		return ""
	}
	return `"` + s + `"`
}

// cf renders a corpus float in its shortest exact form.
func cf(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// orOne mirrors the replay layer's effective message scale: <= 0 means 1.
func orOne(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

func meanOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func maxOf(vals []float64) float64 {
	out := 0.0
	for _, v := range vals {
		if v > out {
			out = v
		}
	}
	return out
}

func medianOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sumOf(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum
}
