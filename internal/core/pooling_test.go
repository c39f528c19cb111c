package core

import (
	"reflect"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/workload"
)

// The allocation-avoidance machinery — the fabric's packet, credit-token
// and message free lists and the router's hop arena — must be invisible to
// the model: every Result field has to match the allocate-fresh
// configuration exactly, for both routing mechanisms (minimal exercises the
// arena, adaptive additionally the candidate scratch, the Valiant
// mid-router draw ordering, and arena recycling of losing candidates).
// Background cells recycle messages whose callbacks are nil and whose
// closes interleave with the app's; the dynamic-failure cell recycles
// messages that close lossily, where the close also completes the send
// side.
func TestPoolingDoesNotChangeResults(t *testing.T) {
	tr := miniCR(t)
	type poolCase struct {
		name  string
		cfg   Config
		lossy bool // the run must drop bytes, so messages close lossily
	}
	var cases []poolCase
	for _, cell := range []Cell{
		{placement.RandomNode, routing.Minimal},
		{placement.RandomNode, routing.Adaptive},
		{placement.Contiguous, routing.Adaptive},
		// qadaptive routes through the same candidate scratch and arena, and
		// its Q-table must see the same decision sequence either way.
		{placement.RandomNode, routing.QAdaptive},
	} {
		cases = append(cases, poolCase{name: cell.Name(), cfg: MiniConfig(tr, cell, 11)})
	}

	uniform := MiniConfig(tr, Cell{placement.RandomNode, routing.Adaptive}, 11)
	uniform.Background = &workload.BackgroundConfig{
		Kind: workload.UniformRandom, MsgBytes: 32 * 1024, Interval: 5 * des.Microsecond,
	}
	bursty := MiniConfig(tr, Cell{placement.Contiguous, routing.Adaptive}, 11)
	bursty.Background = &workload.BackgroundConfig{
		Kind: workload.Bursty, MsgBytes: 8 * 1024, Interval: 8 * des.Microsecond, FanOut: 7,
	}
	failing := MiniConfig(tr, Cell{placement.RandomNode, routing.Adaptive}, 11)
	failing.Faults = &faults.Spec{Events: []faults.Event{
		{At: 2_000, IsGroup: true, Group: 1},
		{At: 20_000, IsGroup: true, Group: 1, Repair: true},
	}}
	failing.WatchdogEvents = 200_000_000
	cases = append(cases,
		poolCase{name: "uniform-background", cfg: uniform},
		poolCase{name: "bursty-background", cfg: bursty},
		poolCase{name: "dynamic-group-failure", cfg: failing, lossy: true},
	)

	for _, c := range cases {
		cfg := c.cfg
		cfg.Audit = true
		pooled, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s pooled: %v", c.name, err)
		}

		cfg.Params.NoPacketPool = true
		cfg.Params.Route.NoCache = true
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s fresh: %v", c.name, err)
		}

		if !pooled.Completed {
			t.Fatalf("%s: pooled run did not complete", c.name)
		}
		if c.lossy && pooled.DroppedBytes == 0 {
			t.Fatalf("%s: no bytes dropped, so no message closed lossily", c.name)
		}
		if pooled.Duration != fresh.Duration || pooled.Events != fresh.Events {
			t.Fatalf("%s: pooled run (%v, %d events) differs from fresh (%v, %d events)",
				c.name, pooled.Duration, pooled.Events, fresh.Duration, fresh.Events)
		}
		if pooled.DroppedPackets != fresh.DroppedPackets || pooled.DroppedBytes != fresh.DroppedBytes {
			t.Errorf("%s: drops differ with pooling: (%d, %d) vs (%d, %d)", c.name,
				pooled.DroppedPackets, pooled.DroppedBytes, fresh.DroppedPackets, fresh.DroppedBytes)
		}
		if !reflect.DeepEqual(pooled.CommTimes, fresh.CommTimes) {
			t.Errorf("%s: per-rank comm times differ with pooling", c.name)
		}
		if !reflect.DeepEqual(pooled.AvgHops, fresh.AvgHops) {
			t.Errorf("%s: per-rank hop averages differ with pooling", c.name)
		}
		if !reflect.DeepEqual(pooled.Links, fresh.Links) {
			t.Errorf("%s: link statistics differ with pooling", c.name)
		}
		if pooled.Audit == nil || len(pooled.Audit.Violations) != 0 {
			t.Errorf("%s: auditor flagged the pooled run: %v", c.name, pooled.Audit)
		}
	}
}
