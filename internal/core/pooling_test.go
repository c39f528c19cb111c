package core

import (
	"reflect"
	"testing"

	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
)

// The allocation-avoidance machinery — the fabric's packet/credit free
// lists and the router's hop arena — must be invisible to the model: every
// Result field has to match the allocate-fresh configuration exactly, for
// both routing mechanisms (minimal exercises the arena, adaptive
// additionally the candidate scratch, the Valiant mid-router draw ordering,
// and arena recycling of losing candidates).
func TestPoolingDoesNotChangeResults(t *testing.T) {
	tr := miniCR(t)
	cells := []Cell{
		{placement.RandomNode, routing.Minimal},
		{placement.RandomNode, routing.Adaptive},
		{placement.Contiguous, routing.Adaptive},
		// qadaptive routes through the same candidate scratch and arena, and
		// its Q-table must see the same decision sequence either way.
		{placement.RandomNode, routing.QAdaptive},
	}
	for _, cell := range cells {
		cfg := MiniConfig(tr, cell, 11)
		cfg.Audit = true
		pooled, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s pooled: %v", cell.Name(), err)
		}

		cfg.Params.NoPacketPool = true
		cfg.Params.Route.NoCache = true
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s fresh: %v", cell.Name(), err)
		}

		if pooled.Duration != fresh.Duration || pooled.Events != fresh.Events {
			t.Fatalf("%s: pooled run (%v, %d events) differs from fresh (%v, %d events)",
				cell.Name(), pooled.Duration, pooled.Events, fresh.Duration, fresh.Events)
		}
		if !reflect.DeepEqual(pooled.CommTimes, fresh.CommTimes) {
			t.Errorf("%s: per-rank comm times differ with pooling", cell.Name())
		}
		if !reflect.DeepEqual(pooled.AvgHops, fresh.AvgHops) {
			t.Errorf("%s: per-rank hop averages differ with pooling", cell.Name())
		}
		if !reflect.DeepEqual(pooled.Links, fresh.Links) {
			t.Errorf("%s: link statistics differ with pooling", cell.Name())
		}
		if pooled.Audit == nil || len(pooled.Audit.Violations) != 0 {
			t.Errorf("%s: auditor flagged the pooled run: %v", cell.Name(), pooled.Audit)
		}
	}
}
