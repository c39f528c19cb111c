package farm

import (
	"errors"
	"sort"

	"dragonfly/internal/audit"
	"dragonfly/internal/core"
	"dragonfly/internal/des"
	"dragonfly/internal/network"
	"dragonfly/internal/topology"
)

// codecVersion identifies the Record payload layout. A stored entry with a
// different version is treated as corrupt (re-run), never decoded on faith.
const codecVersion = 1

// Record is the persisted form of one core.Result: every field the report
// and corpus layers read, minus the two non-serializable ones (the Config,
// which the replaying caller still holds, and the typed RouteErr, kept as
// text). The store's binary codec (codec.go) round-trips every field
// exactly — integers as varints, each float64 as its raw 8 bytes, nil and
// empty slices kept apart — which is what makes a warm replay
// byte-identical to the cold run in every report.
type Record struct {
	Version   int  `json:"version"`
	Completed bool `json:"completed"`

	CommTimes []des.Time         `json:"comm_times"`
	AvgHops   []float64          `json:"avg_hops"`
	Links     []network.LinkStat `json:"links"`

	// AppRouters is stored sorted so identical results serialize to
	// identical bytes (the in-memory form is a set).
	AppRouters []topology.RouterID `json:"app_routers"`
	AppNodes   []topology.NodeID   `json:"app_nodes"`

	BackgroundPeakLoad int64 `json:"background_peak_load"`

	Duration des.Time `json:"duration"`
	Events   uint64   `json:"events"`

	DroppedPackets int64  `json:"dropped_packets"`
	DroppedBytes   int64  `json:"dropped_bytes"`
	RouteErr       string `json:"route_err,omitempty"`
	HasRouteErr    bool   `json:"has_route_err,omitempty"`

	Audit *audit.Summary `json:"audit,omitempty"`
}

// RecordOf converts a simulation result into its persistable record.
func RecordOf(res *core.Result) *Record {
	rec := &Record{
		Version:            codecVersion,
		Completed:          res.Completed,
		CommTimes:          res.CommTimes,
		AvgHops:            res.AvgHops,
		Links:              res.Links,
		AppNodes:           res.AppNodes,
		BackgroundPeakLoad: res.BackgroundPeakLoad,
		Duration:           res.Duration,
		Events:             res.Events,
		DroppedPackets:     res.DroppedPackets,
		DroppedBytes:       res.DroppedBytes,
		Audit:              res.Audit,
	}
	rec.AppRouters = make([]topology.RouterID, 0, len(res.AppRouters))
	for r := range res.AppRouters {
		rec.AppRouters = append(rec.AppRouters, r)
	}
	sort.Slice(rec.AppRouters, func(i, j int) bool { return rec.AppRouters[i] < rec.AppRouters[j] })
	if res.RouteErr != nil {
		rec.HasRouteErr = true
		rec.RouteErr = res.RouteErr.Error()
	}
	return rec
}

// Result materializes the record as a core.Result bound to the caller's
// (identical, by content address) configuration. RouteErr degrades to an
// untyped error carrying the original message: replayed reports only test
// and print it, they never unwrap it.
func (rec *Record) Result(cfg core.Config) *core.Result {
	res := &core.Result{
		Config:             cfg,
		Completed:          rec.Completed,
		CommTimes:          rec.CommTimes,
		AvgHops:            rec.AvgHops,
		Links:              rec.Links,
		AppNodes:           rec.AppNodes,
		BackgroundPeakLoad: rec.BackgroundPeakLoad,
		Duration:           rec.Duration,
		Events:             rec.Events,
		DroppedPackets:     rec.DroppedPackets,
		DroppedBytes:       rec.DroppedBytes,
		Audit:              rec.Audit,
	}
	res.AppRouters = make(map[topology.RouterID]bool, len(rec.AppRouters))
	for _, r := range rec.AppRouters {
		res.AppRouters[r] = true
	}
	if rec.HasRouteErr {
		res.RouteErr = errors.New(rec.RouteErr)
	}
	return res
}
