package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/farm"
)

func setupCells(t *testing.T, name string, seed int64) []cell {
	t.Helper()
	for _, sp := range specs {
		if sp.name != name {
			continue
		}
		b, err := sp.setup(seed, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		switch w := b.(type) {
		case *runnerWorkload:
			return w.cells
		case *thetaWorkload:
			return w.cells
		case *sweepWorkload:
			return w.cells
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// TestRecordedDigests requires core.Run to reproduce every digest recorded in
// digests.json. UPDATE_DIGESTS=1 rewrites the file from the current code.
func TestRecordedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the paper-scale Theta cells")
	}
	recorded, err := loadRecorded()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	got := digestTable{}
	for _, name := range []string{"fig10_interference", "theta_cr"} {
		cells := setupCells(t, name, seed)
		digests := map[string]string{}
		for _, c := range cells {
			res, err := core.Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sane(res); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			digests[c.name] = digest(res)
		}
		got[name] = map[string]map[string]string{strconv.Itoa(seed): digests}
		want := recorded.expected(name, seed)
		if len(want) != len(digests) {
			t.Errorf("%s: %d recorded digests, %d cells", name, len(want), len(digests))
		}
		for k, v := range digests {
			if want[k] != v {
				t.Errorf("%s %s: digest %s, recorded %s", name, k, v, want[k])
			}
		}
	}
	if os.Getenv("UPDATE_DIGESTS") == "1" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("digests.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDigestBitFlipCaught changes one bit of a recorded digest at a time and
// requires the benchmark's cell check to reject the result each time.
func TestDigestBitFlipCaught(t *testing.T) {
	recorded, err := loadRecorded()
	if err != nil {
		t.Fatal(err)
	}
	want := recorded.expected("fig10_interference", 1)
	c := setupCells(t, "fig10_interference", 1)[0]
	res, err := core.Run(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCell(want, c.name, res); err != nil {
		t.Fatalf("unflipped digest rejected: %v", err)
	}
	d, err := strconv.ParseUint(want[c.name], 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 64; bit++ {
		flipped := map[string]string{c.name: fmt.Sprintf("%016x", d^1<<bit)}
		if checkCell(flipped, c.name, res) == nil {
			t.Errorf("digest with bit %d flipped accepted", bit)
		}
	}
}

// TestTracedRunMatchesCoreRun requires the traced composition, bare and on
// the farm's miss and hit paths, to reproduce core.Run's digests.
func TestTracedRunMatchesCoreRun(t *testing.T) {
	cells := setupCells(t, "fig3_quick", 2)
	bg := setupCells(t, "fig10_interference", 2)
	cells = append(cells[:1], bg[len(bg)-1]) // no background; bursty rand-adp
	store, err := farm.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, c := range cells {
		res, err := core.Run(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := digest(res)
		traced, err := tr.run(c.cfg, -1, tr.cell())
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(traced); got != want {
			t.Errorf("%s: traced digest %s, core.Run %s", c.name, got, want)
		}
		for _, wantHit := range []bool{false, true} {
			res, hit, err := tracedFarmCell(tr, store, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if hit != wantHit {
				t.Errorf("%s: hit %v, want %v", c.name, hit, wantHit)
			}
			if got := digest(res); got != want {
				t.Errorf("%s (hit %v): farm digest %s, core.Run %s", c.name, hit, got, want)
			}
		}
	}
	if tr.sims != 2*len(cells) || tr.cnt.events == 0 || tr.cnt.packets == 0 {
		t.Errorf("traced counters not collected: %d sims, %+v", tr.sims, tr.cnt)
	}
}

// TestCPUShares decodes a real CPU profile of simulation work: the layer
// shares must cover every sample and charge the engine.
func TestCPUShares(t *testing.T) {
	c := setupCells(t, "fig10_interference", 1)[0]
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := core.Run(c.cfg); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	w := map[string]float64{}
	if err := cpuWeights(w, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	shares := shares(w)
	sum := 0.0
	for k, v := range shares {
		if k != outsideRun {
			sum += v
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("layer shares sum to %v: %v", sum, shares)
	}
	if shares["des"] <= 0 || shares["network"] <= 0 {
		t.Errorf("engine or fabric not charged: %v", shares)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps metrics.json, which the command
// reads its units from, in step with the repository's BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		found := false
		for _, sp := range specs {
			found = found || sp.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the command", w.Name)
		}
		if cat.Workloads[w.Name] != w.Why {
			t.Errorf("workload %s: why differs between BENCHMARK.json and metrics.json", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(cat.EndToEnd) || len(bj.PerLayer) != len(cat.PerLayer) {
		t.Fatalf("metric counts differ: BENCHMARK.json %d+%d, metrics.json %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(cat.EndToEnd), len(cat.PerLayer))
	}
	for i, m := range bj.EndToEnd {
		c := cat.EndToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, metrics.json %+v", i, m, c)
		}
	}
	for i, m := range bj.PerLayer {
		c := cat.PerLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, metrics.json %+v", i, m, c)
		}
	}
}
