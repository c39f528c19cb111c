// Package metrics converts raw fabric and replay state into the paper's
// four evaluation metrics (Sec. III-E): communication time, average hops,
// per-channel network traffic, and link saturation time — in the units the
// figures use (milliseconds and MiB).
package metrics

import (
	"dragonfly/internal/des"
	"dragonfly/internal/network"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
)

// MiB is the traffic unit of Figs. 4-6 and 8-10.
const MiB = 1024 * 1024

// CommTimesMs converts per-rank communication times to milliseconds.
func CommTimesMs(times []des.Time) []float64 {
	out := make([]float64, len(times))
	for i, t := range times {
		out[i] = t.Milliseconds()
	}
	return out
}

// MaxCommTime returns the slowest rank's communication time.
func MaxCommTime(times []des.Time) des.Time {
	var max des.Time
	for _, t := range times {
		if t > max {
			max = t
		}
	}
	return max
}

// RouterSet builds the set of routers serving the given nodes — the routers
// whose channels Figs. 8-10 analyze ("routers that serve the nodes assigned
// to the target application").
func RouterSet(topo topology.Interconnect, nodes []topology.NodeID) map[topology.RouterID]bool {
	set := make(map[topology.RouterID]bool, len(nodes))
	for _, n := range nodes {
		set[topo.RouterOfNode(n)] = true
	}
	return set
}

// ChannelTraffic returns the traffic in MiB of every directed channel of
// the given kind, one value per channel. A non-nil routers set restricts
// the census to channels leaving those routers.
func ChannelTraffic(links []network.LinkStat, kind routing.LinkKind, routers map[topology.RouterID]bool) []float64 {
	var out []float64
	for _, l := range links {
		if l.Kind != kind {
			continue
		}
		if routers != nil && !routers[l.From] {
			continue
		}
		out = append(out, float64(l.Bytes)/MiB)
	}
	return out
}

// ChannelSaturation returns the saturation time in milliseconds of every
// directed channel of the given kind, optionally restricted to channels
// leaving the given routers.
func ChannelSaturation(links []network.LinkStat, kind routing.LinkKind, routers map[topology.RouterID]bool) []float64 {
	var out []float64
	for _, l := range links {
		if l.Kind != kind {
			continue
		}
		if routers != nil && !routers[l.From] {
			continue
		}
		out = append(out, l.SatTime.Milliseconds())
	}
	return out
}
