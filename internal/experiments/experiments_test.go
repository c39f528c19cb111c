package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
)

func quickRunner(t *testing.T) *Runner {
	t.Helper()
	return NewRunner(Options{Scale: ScaleQuick, Seed: 1})
}

func TestIDsCoverEveryArtifact(t *testing.T) {
	ids := IDs()
	if len(ids) != 11 {
		t.Fatalf("IDs = %v, want 11 artifacts (2 tables + figs 2-10)", ids)
	}
}

func TestUnknownIDRejected(t *testing.T) {
	if _, err := quickRunner(t).Run("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTableI(t *testing.T) {
	rep, err := quickRunner(t).TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 5 {
		t.Fatalf("Table I shape wrong: %+v", rep.Tables)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cont-min", "rand-adp", "chas-adp"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table I text missing %s", want)
		}
	}
}

func TestTableIIMatchesPaperAtPaperScale(t *testing.T) {
	r := NewRunner(Options{Scale: ScalePaper, Seed: 1})
	rep, err := r.TableII()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]string{
		"CR":  {"38.38", "92.00"},
		"FB":  {"38.38", "5.75"},
		"AMG": {"27.00", "2.85"},
	}
	rows := rep.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("Table II rows = %d", len(rows))
	}
	for _, row := range rows {
		w := want[row[0]]
		if row[1] != w[0] || row[2] != w[1] {
			t.Errorf("Table II %s = (%s, %s), paper (%s, %s)", row[0], row[1], row[2], w[0], w[1])
		}
	}
}

func TestFigure2(t *testing.T) {
	rep, err := quickRunner(t).Figure2()
	if err != nil {
		t.Fatal(err)
	}
	// 3 apps x (matrix + load timeline).
	if len(rep.Tables) != 6 {
		t.Fatalf("Figure 2 produced %d tables, want 6", len(rep.Tables))
	}
	// AMG load timeline must show the V-cycle surges: first phase load
	// strictly above a mid-sweep phase.
	var amgLoads *Table
	for i := range rep.Tables {
		if strings.HasPrefix(rep.Tables[i].Title, "AMG message load") {
			amgLoads = &rep.Tables[i]
		}
	}
	if amgLoads == nil {
		t.Fatal("AMG load table missing")
	}
	first, _ := strconv.ParseFloat(amgLoads.Rows[0][1], 64)
	mid, _ := strconv.ParseFloat(amgLoads.Rows[3][1], 64)
	if first <= mid {
		t.Fatalf("AMG surge profile missing: phase0 %v <= phase3 %v", first, mid)
	}
}

func TestFigure3QuickShape(t *testing.T) {
	r := quickRunner(t)
	rep, err := r.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("Figure 3 tables = %d, want 3 apps", len(rep.Tables))
	}
	for _, tbl := range rep.Tables {
		if len(tbl.Rows) != 10 {
			t.Fatalf("%s: %d rows, want 10 configs", tbl.Title, len(tbl.Rows))
		}
		for _, row := range tbl.Rows {
			for i, cell := range row[1:] {
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil || v <= 0 {
					t.Fatalf("%s %s col %d: bad value %q", tbl.Title, row[0], i, cell)
				}
			}
			// Box ordering.
			var vals [5]float64
			for i := 0; i < 5; i++ {
				vals[i], _ = strconv.ParseFloat(row[i+1], 64)
			}
			for i := 1; i < 5; i++ {
				if vals[i] < vals[i-1] {
					t.Fatalf("%s %s: box values not ordered: %v", tbl.Title, row[0], vals)
				}
			}
		}
	}
}

func TestFigure4ContrastHolds(t *testing.T) {
	r := quickRunner(t)
	rep, err := r.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	// First table: hops percentiles. cont-min median hops < rand-min.
	hops := rep.Tables[0]
	med := map[string]float64{}
	for _, row := range hops.Rows {
		v, _ := strconv.ParseFloat(row[2], 64)
		med[row[0]] = v
	}
	if med["cont-min"] >= med["rand-min"] {
		t.Fatalf("cont-min median hops %v not below rand-min %v (Fig. 4a contrast)",
			med["cont-min"], med["rand-min"])
	}
	if len(rep.Tables) != 4 {
		t.Fatalf("Figure 4 tables = %d, want hops + traffic + 2 saturation", len(rep.Tables))
	}
}

func TestFigure7RelativeBaseline(t *testing.T) {
	r := quickRunner(t)
	rep, err := r.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("Figure 7 tables = %d", len(rep.Tables))
	}
	// The rand-adp baseline is also an extreme cell: listed once per scale,
	// it simulates once and never counts as a hit of its own grid.
	if st := r.FarmStats(); st.Hits != 0 || st.Misses != 3*5*4 {
		t.Fatalf("Figure 7 farm stats %+v, want 60 simulated and 0 hits", st)
	}
	for _, tbl := range rep.Tables {
		// rand-adp column must be exactly 100% everywhere.
		col := -1
		for i, c := range tbl.Columns {
			if c == "rand-adp" {
				col = i
			}
		}
		if col < 0 {
			t.Fatalf("%s: no rand-adp column", tbl.Title)
		}
		for _, row := range tbl.Rows {
			if row[col] != "100.0" {
				t.Fatalf("%s scale %s: baseline %s%% != 100.0", tbl.Title, row[0], row[col])
			}
		}
	}
}

func TestFigure8RunsQuick(t *testing.T) {
	r := quickRunner(t)
	rep, err := r.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("Figure 8 tables = %d, want box + 2 traffic", len(rep.Tables))
	}
}

func TestFigure9And10RunQuick(t *testing.T) {
	r := quickRunner(t)
	for _, id := range []string{"fig9", "fig10"} {
		rep, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Tables) != 3 {
			t.Fatalf("%s tables = %d, want uniform box + bursty box + local traffic", id, len(rep.Tables))
		}
	}
}

func TestCSVDump(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(Options{Scale: ScaleQuick, Seed: 1, DataDir: dir})
	if _, err := r.TableI(); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "table1_*.csv"))
	if len(matches) != 1 {
		t.Fatalf("CSV files = %v", matches)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "placement_policy,") {
		t.Fatalf("CSV header wrong: %q", string(data)[:40])
	}
}

func TestRunnerCachesResults(t *testing.T) {
	r := quickRunner(t)
	if _, err := r.Figure3(); err != nil {
		t.Fatal(err)
	}
	n := r.FarmStats().Misses
	if n != 30 {
		t.Fatalf("Figure 3 simulated %d cells, want 30 (3 apps x 10 cells)", n)
	}
	// Figure 4 reuses the CR runs: no new simulations.
	if _, err := r.Figure4(); err != nil {
		t.Fatal(err)
	}
	if st := r.FarmStats(); st.Misses != n || st.Hits != 0 {
		t.Fatalf("Figure 4 re-ran cached cells: %d -> %d simulated, %d hits", n, st.Misses, st.Hits)
	}
}

func TestSlug(t *testing.T) {
	if got := slug("CR local channel traffic (MiB per channel)"); got != "cr_local_channel_traffic_mib_per_channel" {
		t.Fatalf("slug = %q", got)
	}
}

func TestExtensionXMap(t *testing.T) {
	rep, err := quickRunner(t).Run("xmap")
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("xmap rows = %d, want 4 mappings", len(tbl.Rows))
	}
	hops := map[string]float64{}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad hops %q", row[3])
		}
		hops[row[0]] = v
	}
	// Locality-restoring mappings must not increase mean hops over shuffle.
	if hops["router-packed"] > hops["shuffle"] {
		t.Fatalf("router-packed hops %v above shuffle %v", hops["router-packed"], hops["shuffle"])
	}
}

func TestExtensionXMulti(t *testing.T) {
	rep, err := quickRunner(t).Run("xmulti")
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("xmulti rows = %d", len(tbl.Rows))
	}
	worst := 0.0
	for _, row := range tbl.Rows {
		slow := strings.TrimSuffix(row[3], "x")
		v, err := strconv.ParseFloat(slow, 64)
		if v > worst {
			worst = v
		}
		// Disjoint contiguous regions can leave the victim essentially
		// untouched (~1.0x); anything clearly below baseline is a bug.
		if err != nil || v < 0.9 {
			t.Fatalf("co-run slowdown %q below plausible range", row[3])
		}
	}
	if worst < 1.05 {
		t.Fatalf("no pairing showed interference (worst slowdown %.2fx)", worst)
	}
}

// xmulti's co-runs have no fault model, so a degraded-fabric option must be
// refused by name rather than noted over a healthy co-run's numbers.
func TestExtensionXMultiRejectsFaults(t *testing.T) {
	spec, err := faults.ParseSpec("global=0.25,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewRunner(Options{Scale: ScaleQuick, Seed: 1, Faults: spec}).Run("xmulti")
	if err == nil {
		t.Fatalf("xmulti under faults %s returned a report, notes %q", spec, rep.Notes)
	}
	if !strings.Contains(err.Error(), "-faults") {
		t.Fatalf("xmulti fault error %q does not name -faults", err)
	}
}

func TestReportWriteTextIncludesPlots(t *testing.T) {
	rep := &Report{
		ID:    "figX",
		Title: "demo",
		Notes: []string{"a note"},
		Tables: []Table{{
			Title:   "numbers",
			Columns: []string{"k", "v"},
			Rows:    [][]string{{"a", "1"}, {"b", "22"}},
		}},
		Plots: []Plot{{Title: "curve", Text: "~~~plot-body~~~\n"}},
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figX", "a note", "-- numbers --", "-- curve --", "~~~plot-body~~~"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText missing %q:\n%s", want, out)
		}
	}
}

func TestPercentileRow(t *testing.T) {
	row := percentileRow([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if len(row) != 5 {
		t.Fatalf("row = %v", row)
	}
	if row[4] != "10" {
		t.Fatalf("max = %q, want 10", row[4])
	}
	empty := percentileRow(nil)
	for _, c := range empty {
		if c != "-" {
			t.Fatalf("empty row = %v", empty)
		}
	}
}

func TestBurstyBackgroundDecodesTableII(t *testing.T) {
	r := NewRunner(Options{Scale: ScalePaper, Seed: 1})
	cr := r.burstyBackground("CR", 2456)
	if cr.MsgBytes != 16*1024 {
		t.Fatalf("CR bursty message = %d, want 16 KiB", cr.MsgBytes)
	}
	fb := r.burstyBackground("FB", 2456)
	if fb.MsgBytes != 1024 {
		t.Fatalf("FB bursty message = %d, want 1 KiB", fb.MsgBytes)
	}
	if cr.FanOut != 2455/32 {
		t.Fatalf("CR fan-out = %d, want %d", cr.FanOut, 2455/32)
	}
}

// TestUnfinishedCellErrors: a cell cut at its deadline reports the
// deadline; one whose event queue emptied first, with or without a
// deadline, reports a stall at the time the queue emptied.
func TestUnfinishedCellErrors(t *testing.T) {
	for _, tc := range []struct {
		deadline, ended des.Time
		want            string
	}{
		{0, 3 * des.Microsecond, "CR under rand-min stalled: the event queue emptied at " + (3 * des.Microsecond).String() + " with the job unfinished"},
		{des.Second, 3 * des.Microsecond, "CR under rand-min stalled: the event queue emptied at " + (3 * des.Microsecond).String() + " with the job unfinished"},
		{des.Second, des.Second, "CR under rand-min did not complete within " + des.Second.String()},
		{des.Second, des.Second + 5, "CR under rand-min did not complete within " + des.Second.String()},
	} {
		if err := unfinished("CR under rand-min", tc.deadline, tc.ended); err == nil || err.Error() != "experiments: "+tc.want {
			t.Errorf("deadline %v, ended %v: %v, want %q", tc.deadline, tc.ended, err, tc.want)
		}
	}
}
