package cliutil

import (
	"strings"
	"testing"
	"time"

	"dragonfly/internal/faults"
	"dragonfly/internal/mapping"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/workload"
)

// TestParsers is the table-driven sweep over every flag parser the commands
// share: each bad input must produce a one-line error that names the valid
// choices (so the user never needs the source to fix a typo), and no input
// may panic.
func TestParsers(t *testing.T) {
	tests := []struct {
		name    string
		parse   func() (interface{}, error)
		want    interface{} // ignored when wantErr is non-empty
		wantErr string      // substring the error must contain
	}{
		{"machine/theta", func() (interface{}, error) { m, err := Machine("theta", "mini"); return label(m), err }, "dragonfly:g9-r6x16-n4", ""},
		{"machine/fallback", func() (interface{}, error) { m, err := Machine("", "dfplus-mini"); return label(m), err }, "dragonfly+:g5-l8-s4-n4", ""},
		{"machine/unknown", func() (interface{}, error) { m, err := Machine("summit", "theta"); return label(m), err }, nil, "want dfplus, dfplus-mini, mini, theta"},

		{"app/flat", func() (interface{}, error) { return App("CR") }, "CR", ""},
		{"app/lowercase", func() (interface{}, error) { return App(" amg ") }, "AMG", ""},
		{"app/graph", func() (interface{}, error) { return App("ring") }, "RING", ""},
		{"app/unknown", func() (interface{}, error) { return App("LINPACK") }, nil, "want CR, FB, AMG, RING, TREE, MOE, HALO2D, HALO3D, CKPT"},
		{"apps/list", func() (interface{}, error) { a, err := Apps("CR, ring ,ckpt"); return len(a), err }, 3, ""},
		{"apps/bad-element", func() (interface{}, error) { return Apps("CR,LINPACK") }, nil, "want CR, FB, AMG, RING, TREE, MOE, HALO2D, HALO3D, CKPT"},
		{"apps/empty", func() (interface{}, error) { return Apps("") }, nil, "want CR, FB, AMG"},
		{"app-choices", func() (interface{}, error) { return AppChoices(), nil },
			"CR, FB, AMG (the paper's miniapps, flat traces), or RING, TREE, MOE, HALO2D, HALO3D, CKPT (dependency-graph generators)", ""},

		{"placement/one", func() (interface{}, error) { return Placement(" rand ") }, placement.RandomNode, ""},
		{"placement/unknown", func() (interface{}, error) { return Placement("spiral") }, nil, "want cont, cab, chas, rotr, or rand"},
		{"placements/list", func() (interface{}, error) { p, err := Placements("cont, rand"); return len(p), err }, 2, ""},
		{"placements/bad-element", func() (interface{}, error) { return Placements("cont,spiral") }, nil, `placement "spiral"`},
		{"placements/empty", func() (interface{}, error) { return Placements("") }, nil, "want cont"},

		{"routing/min", func() (interface{}, error) { return Routing("min") }, routing.Minimal, ""},
		{"routing/qadaptive", func() (interface{}, error) { return Routing(" qadaptive ") }, routing.QAdaptive, ""},
		{"routing/qadp-alias", func() (interface{}, error) { return Routing("qadp") }, routing.QAdaptive, ""},
		{"routing/unknown", func() (interface{}, error) { return Routing("ugal5") }, nil, "want min, adp, or qadaptive"},
		{"routings/list", func() (interface{}, error) { m, err := Routings("min,adp,qadaptive"); return len(m), err }, 3, ""},
		{"routings/bad-element", func() (interface{}, error) { return Routings("min,") }, nil, "want min, adp, or qadaptive"},

		{"mapping/identity", func() (interface{}, error) { return Mapping("identity") }, mapping.Identity, ""},
		{"mapping/unknown", func() (interface{}, error) { return Mapping("hilbert") }, nil, "want identity, shuffle, router-packed, group-packed"},

		{"background/none", func() (interface{}, error) { _, on, err := Background("none"); return on, err }, false, ""},
		{"background/uniform", func() (interface{}, error) { k, _, err := Background("uniform"); return k, err }, workload.UniformRandom, ""},
		{"background/bursty", func() (interface{}, error) { k, _, err := Background("bursty"); return k, err }, workload.Bursty, ""},
		{"background/unknown", func() (interface{}, error) { _, _, err := Background("storm"); return nil, err }, nil, "want none, uniform, or bursty"},

		{"scale-shape/family-only", func() (interface{}, error) { m, err := ScaleShape("df", 2000); return label(m), err }, "dragonfly:g21-r6x16-n1", ""},
		{"scale-shape/explicit-count", func() (interface{}, error) { m, err := ScaleShape(" dfplus:360 ", 2000); return label(m), err }, "dragonfly+:g10-l24-s12-n1", ""},
		{"scale-shape/unknown-family", func() (interface{}, error) { return ScaleShape("torus:100", 0) }, nil, "want df or dfplus"},
		{"scale-shape/bad-count", func() (interface{}, error) { return ScaleShape("df:many", 0) }, nil, "not a number"},
		{"scale-shape/zero-routers", func() (interface{}, error) { return ScaleShape("df", 0) }, nil, "-routers >= 1"},
		{"scale-shapes/list", func() (interface{}, error) { ms, err := ScaleShapes("df:200,dfplus:300", 0); return len(ms), err }, 2, ""},
		{"scale-shapes/bad-element", func() (interface{}, error) { return ScaleShapes("df:200,ring", 0) }, nil, "want df or dfplus"},

		{"build-workers/default", func() (interface{}, error) { n, err := BuildWorkers(0); return n > 0, err }, true, ""},
		{"build-workers/explicit", func() (interface{}, error) { defer BuildWorkers(0); return BuildWorkers(3) }, 3, ""},
		{"build-workers/negative", func() (interface{}, error) { return BuildWorkers(-2) }, nil, "want 0 (all CPUs) or a positive count"},

		{"faults/empty", func() (interface{}, error) { s, err := FaultSpec("", 0); return s.Empty(), err }, true, ""},
		{"faults/spec", func() (interface{}, error) { s, err := FaultSpec("global=0.25,seed=9", 0); return s.Seed, err }, int64(9), ""},
		{"faults/seed-override", func() (interface{}, error) { s, err := FaultSpec("global=0.25,seed=9", 4); return s.Seed, err }, int64(4), ""},
		{"faults/bad-clause", func() (interface{}, error) { return FaultSpec("global=2", 0) }, nil, "clauses: global=FRAC"},
		{"faults/unknown-key", func() (interface{}, error) { return FaultSpec("cables=3", 0) }, nil, "clauses: global=FRAC"},

		{"mappings/list", func() (interface{}, error) { p, err := Mappings("identity, shuffle"); return len(p), err }, 2, ""},
		{"mappings/bad-element", func() (interface{}, error) { return Mappings("identity,hilbert") }, nil, "want identity, shuffle"},

		{"shard/empty", func() (interface{}, error) { i, n, err := Shard(""); return [2]int{i, n}, err }, [2]int{0, 1}, ""},
		{"shard/of-four", func() (interface{}, error) { i, n, err := Shard(" 2/4 "); return [2]int{i, n}, err }, [2]int{2, 4}, ""},
		{"shard/no-slash", func() (interface{}, error) { _, _, err := Shard("3"); return nil, err }, nil, "want I/N"},
		{"shard/out-of-range", func() (interface{}, error) { _, _, err := Shard("4/4"); return nil, err }, nil, "0 <= I < N"},
		{"shard/negative", func() (interface{}, error) { _, _, err := Shard("-1/4"); return nil, err }, nil, "0 <= I < N"},
		{"shard/zero-shards", func() (interface{}, error) { _, _, err := Shard("0/0"); return nil, err }, nil, "0 <= I < N"},

		{"int64list/list", func() (interface{}, error) { v, err := Int64List("seeds", "1, 2,3"); return len(v), err }, 3, ""},
		{"int64list/bad", func() (interface{}, error) { return Int64List("seeds", "1,two") }, nil, `"two" is not an integer`},

		{"floatlist/list", func() (interface{}, error) { v, err := FloatList("msg-scales", "0.5,1,2"); return len(v), err }, 3, ""},
		{"floatlist/bad", func() (interface{}, error) { return FloatList("msg-scales", "1,half") }, nil, `"half" is not a number`},

		{"faultspecs/empty", func() (interface{}, error) { s, err := FaultSpecs("", 0); return len(s) == 1 && s[0] == nil, err }, true, ""},
		{"faultspecs/none", func() (interface{}, error) { s, err := FaultSpecs("none", 0); return len(s) == 1 && s[0] == nil, err }, true, ""},
		{"faultspecs/sweep", func() (interface{}, error) {
			s, err := FaultSpecs("none;global=0.1;global=0.2,seed=3", 0)
			return len(s) == 3 && s[0] == nil && s[1] != nil && s[2].Seed == 3, err
		}, true, ""},
		{"faultspecs/bad-element", func() (interface{}, error) { return FaultSpecs("global=0.1;cables=2", 0) }, nil, "clauses: global=FRAC"},

		{"faults/flap", func() (interface{}, error) {
			s, err := FaultSpec("flap=link:0-1@100us:50us,until=2ms", 0)
			return len(s.Flaps) == 1 && s.FlapUntil == 2_000_000, err
		}, true, ""},
		{"faults/group-bundle", func() (interface{}, error) {
			s, err := FaultSpec("group=1,bundle=0-2", 0)
			return len(s.Fail) == 2 && s.Fail[0].Kind == faults.Group && s.Fail[1].Kind == faults.Bundle, err
		}, true, ""},
		{"faults/flap-missing-mttr", func() (interface{}, error) { return FaultSpec("flap=link:0-1@100us", 0) }, nil, "flap=link:A-B@MTBF:MTTR"},
		{"faults/bad-bundle", func() (interface{}, error) { return FaultSpec("bundle=3", 0) }, nil, "bundle=G1-G2"},

		{"retries/zero", func() (interface{}, error) { return Retries(0) }, 0, ""},
		{"retries/positive", func() (interface{}, error) { return Retries(3) }, 3, ""},
		{"retries/negative", func() (interface{}, error) { return Retries(-1) }, nil, "want 0 (fail on first error) or a positive"},

		{"burst-divisor/zero", func() (interface{}, error) { return BurstDivisor(0) }, 0, ""},
		{"burst-divisor/positive", func() (interface{}, error) { return BurstDivisor(8) }, 8, ""},
		{"burst-divisor/negative", func() (interface{}, error) { return BurstDivisor(-1) }, nil, "want 0 (the scale default) or a positive divisor"},

		{"job-timeout/zero", func() (interface{}, error) { return JobTimeout(0) }, time.Duration(0), ""},
		{"job-timeout/positive", func() (interface{}, error) { return JobTimeout(5 * time.Minute) }, 5 * time.Minute, ""},
		{"job-timeout/negative", func() (interface{}, error) { return JobTimeout(-time.Second) }, nil, "want 0 (no wall-clock budget) or a positive"},

		{"quarantine-limit/zero", func() (interface{}, error) { return QuarantineLimit(0) }, 0, ""},
		{"quarantine-limit/positive", func() (interface{}, error) { return QuarantineLimit(2) }, 2, ""},
		{"quarantine-limit/negative", func() (interface{}, error) { return QuarantineLimit(-3) }, nil, "want 0 (quarantine disabled) or a positive"},

		{"chaos/empty", func() (interface{}, error) { s, err := ChaosSpec(""); return s.Empty(), err }, true, ""},
		{"chaos/spec", func() (interface{}, error) {
			s, err := ChaosSpec("worker.kill=0.5,store.read=0.1,max=1,seed=7")
			return len(s.Probability) == 2 && s.MaxPerKey == 1 && s.Seed == 7, err
		}, true, ""},
		{"chaos/unknown-site", func() (interface{}, error) { return ChaosSpec("disk.melt=1") }, nil, "sites store.read, store.write, worker.panic, worker.kill, sim.stall"},
		{"chaos/bad-probability", func() (interface{}, error) { return ChaosSpec("worker.kill=2") }, nil, "SITE=PROB"},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.parse()
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("accepted invalid input (got %v)", got)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not name the valid choices (want substring %q)", err, tc.wantErr)
				}
				if strings.Contains(err.Error(), "\n") {
					t.Fatalf("error is not one line: %q", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("rejected valid input: %v", err)
			}
			if got != tc.want {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func label(m interface{ Label() string }) interface{} {
	if m == nil {
		return nil
	}
	return m.Label()
}
