package core

import (
	"strings"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/stats"
	"dragonfly/internal/topology"
	"dragonfly/internal/trace"
	"dragonfly/internal/workload"
)

func miniCR(t *testing.T) *trace.Trace {
	t.Helper()
	tr, _, err := trace.BuildApp("CR", trace.Mini)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunSmokeAllCells(t *testing.T) {
	tr := miniCR(t)
	for _, cell := range AllCells() {
		res, err := Run(MiniConfig(tr, cell, 1))
		if err != nil {
			t.Fatalf("%s: %v", cell.Name(), err)
		}
		if !res.Completed {
			t.Fatalf("%s: run did not complete", cell.Name())
		}
		if len(res.CommTimes) != tr.NumRanks() {
			t.Fatalf("%s: %d comm times for %d ranks", cell.Name(), len(res.CommTimes), tr.NumRanks())
		}
		if res.MaxCommTime() <= 0 {
			t.Fatalf("%s: nonpositive max comm time", cell.Name())
		}
		for i, h := range res.AvgHops {
			if h < 1 || h > 6 {
				t.Fatalf("%s: rank %d avg hops %v", cell.Name(), i, h)
			}
		}
		if res.Events == 0 || res.Duration <= 0 {
			t.Fatalf("%s: empty run accounting", cell.Name())
		}
	}
}

func TestAllCellsCountAndNames(t *testing.T) {
	cells := AllCells()
	if len(cells) != 10 {
		t.Fatalf("AllCells = %d entries, want 10 (Table I)", len(cells))
	}
	want := map[string]bool{
		"cont-min": true, "cab-min": true, "chas-min": true, "rotr-min": true, "rand-min": true,
		"cont-adp": true, "cab-adp": true, "chas-adp": true, "rotr-adp": true, "rand-adp": true,
	}
	for _, c := range cells {
		if !want[c.Name()] {
			t.Fatalf("unexpected cell %q", c.Name())
		}
		delete(want, c.Name())
	}
	if len(want) != 0 {
		t.Fatalf("missing cells: %v", want)
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	tr := miniCR(t)
	cell := Cell{placement.RandomNode, routing.Adaptive}
	a, err := Run(MiniConfig(tr, cell, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(MiniConfig(tr, cell, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Events != b.Events {
		t.Fatalf("same seed diverged: (%v,%d) vs (%v,%d)", a.Duration, a.Events, b.Duration, b.Events)
	}
	for i := range a.CommTimes {
		if a.CommTimes[i] != b.CommTimes[i] {
			t.Fatalf("rank %d comm time differs across identical runs", i)
		}
	}
	c, err := Run(MiniConfig(tr, cell, 8))
	if err != nil {
		t.Fatal(err)
	}
	if c.Duration == a.Duration && c.Events == a.Events {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestContiguousLocalizesRandomBalances(t *testing.T) {
	// The paper's central contrast (Figs. 4-6): contiguous placement yields
	// fewer average hops; random-node placement spreads traffic over more
	// channels.
	tr := miniCR(t)
	cont, err := Run(MiniConfig(tr, Cell{placement.Contiguous, routing.Minimal}, 3))
	if err != nil {
		t.Fatal(err)
	}
	rand, err := Run(MiniConfig(tr, Cell{placement.RandomNode, routing.Minimal}, 3))
	if err != nil {
		t.Fatal(err)
	}
	if hc, hr := stats.Mean(cont.AvgHops), stats.Mean(rand.AvgHops); hc >= hr {
		t.Fatalf("contiguous avg hops %v not below random %v", hc, hr)
	}
	nonzero := func(vals []float64) int {
		n := 0
		for _, v := range vals {
			if v > 0 {
				n++
			}
		}
		return n
	}
	usedCont := nonzero(cont.LocalTraffic(false)) + nonzero(cont.GlobalTraffic(false))
	usedRand := nonzero(rand.LocalTraffic(false)) + nonzero(rand.GlobalTraffic(false))
	if usedCont >= usedRand {
		t.Fatalf("contiguous used %d channels, random %d: random should spread wider", usedCont, usedRand)
	}
}

func TestMsgScaleIncreasesCommTime(t *testing.T) {
	tr := miniCR(t)
	cfgSmall := MiniConfig(tr, Cell{placement.Contiguous, routing.Minimal}, 4)
	cfgSmall.MsgScale = 0.25
	cfgBig := cfgSmall
	cfgBig.MsgScale = 4
	small, err := Run(cfgSmall)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(cfgBig)
	if err != nil {
		t.Fatal(err)
	}
	if big.MaxCommTime() <= small.MaxCommTime() {
		t.Fatalf("16x message load did not increase comm time: %v vs %v",
			big.MaxCommTime(), small.MaxCommTime())
	}
}

func TestRunWithBackground(t *testing.T) {
	tr := miniCR(t)
	cfg := MiniConfig(tr, Cell{placement.RandomNode, routing.Adaptive}, 5)
	cfg.Background = &workload.BackgroundConfig{
		Kind:     workload.UniformRandom,
		MsgBytes: 32 * 1024,
		Interval: 2 * des.Microsecond,
	}
	cfg.MaxSimTime = des.Second
	noisy, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !noisy.Completed {
		t.Fatal("app did not complete under background traffic")
	}
	if noisy.BackgroundPeakLoad != int64(64-32)*32*1024 {
		t.Fatalf("background peak load = %d", noisy.BackgroundPeakLoad)
	}
	clean, err := Run(MiniConfig(tr, Cell{placement.RandomNode, routing.Adaptive}, 5))
	if err != nil {
		t.Fatal(err)
	}
	if noisy.MaxCommTime() <= clean.MaxCommTime() {
		t.Fatalf("background did not degrade app: noisy %v vs clean %v",
			noisy.MaxCommTime(), clean.MaxCommTime())
	}
}

func TestMaxSimTimeCutsRunShort(t *testing.T) {
	tr := miniCR(t)
	cfg := MiniConfig(tr, Cell{placement.Contiguous, routing.Minimal}, 6)
	cfg.MaxSimTime = 2 * des.Microsecond // far too little for the whole app
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("run claimed completion despite the deadline")
	}
	if res.Duration > cfg.MaxSimTime+des.Microsecond {
		t.Fatalf("run overshot the deadline: %v", res.Duration)
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("accepted config without trace")
	}
	tr := miniCR(t)
	cfg := MiniConfig(tr, Cell{placement.Contiguous, routing.Minimal}, 1)
	bad := cfg.Topology.(topology.Config)
	bad.Groups = 0
	cfg.Topology = bad
	if _, err := Run(cfg); err == nil {
		t.Error("accepted invalid topology")
	}
	cfg = MiniConfig(tr, Cell{placement.Contiguous, routing.Minimal}, 1)
	cfg.Topology = nil
	if _, err := Run(cfg); err == nil {
		t.Error("accepted config without machine")
	}
	cfg = MiniConfig(tr, Cell{placement.Contiguous, routing.Minimal}, 1)
	cfg.Background = &workload.BackgroundConfig{MsgBytes: 0, Interval: 1}
	cfg.MaxSimTime = des.Second
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "MsgBytes") {
		t.Errorf("accepted invalid background config (err %v)", err)
	}
	// Background traffic never finishes, so only a deadline ends a run
	// whose job cannot.
	cfg.Background = &workload.BackgroundConfig{Kind: workload.UniformRandom, MsgBytes: 1024, Interval: des.Microsecond}
	cfg.MaxSimTime = 0
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "MaxSimTime") {
		t.Errorf("background without a deadline: err %v, want one naming MaxSimTime", err)
	}
	big, _ := trace.CR(trace.CRConfig{Ranks: 100, MessageBytes: 100})
	cfg = MiniConfig(big, Cell{placement.Contiguous, routing.Minimal}, 1)
	if _, err := Run(cfg); err == nil {
		t.Error("accepted job larger than the machine")
	}
}

func TestResultChannelAccessors(t *testing.T) {
	tr := miniCR(t)
	res, err := Run(MiniConfig(tr, Cell{placement.Contiguous, routing.Minimal}, 9))
	if err != nil {
		t.Fatal(err)
	}
	topoCfg := res.Config.Topology.(topology.Config)
	wantLocal := topoCfg.Groups * topoCfg.Rows * topoCfg.Cols * ((topoCfg.Rows - 1) + (topoCfg.Cols - 1))
	if got := len(res.LocalTraffic(false)); got != wantLocal {
		t.Fatalf("local channel census = %d, want %d", got, wantLocal)
	}
	if got, unfiltered := len(res.LocalTraffic(true)), len(res.LocalTraffic(false)); got >= unfiltered {
		t.Fatalf("restricted census %d not below machine-wide %d", got, unfiltered)
	}
	if len(res.GlobalSaturation(false)) == 0 {
		t.Fatal("no global channels reported")
	}
	cms := res.CommTimesMs()
	if len(cms) != tr.NumRanks() || cms[0] <= 0 {
		t.Fatalf("CommTimesMs = %v...", cms[0])
	}
}
