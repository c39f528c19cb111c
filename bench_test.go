package dragonfly

// One benchmark per evaluation artifact of the paper: Tables I-II and
// Figures 2-10. Each benchmark regenerates its artifact end to end at quick
// scale (a structurally Theta-like small machine with proportionally shrunk
// applications); `cmd/dfsweep -scale paper` runs the same code at the
// paper's machine and application sizes. Reported custom metrics:
// sim_events/op (DES events executed) — the natural work unit of the
// simulator — and gcs/op, the collector cycles per iteration.

import (
	"runtime"
	"testing"
)

// numGC returns the number of completed collector cycles.
func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// reportGCs reports the collector cycles per iteration since the count
// was before.
func reportGCs(b *testing.B, before uint32) {
	b.ReportMetric(float64(numGC()-before)/float64(b.N), "gcs/op")
}

// warmUp runs cfg once and restarts the timer, so a benchmark of core.Run
// counts warm runs only: the first run lowers the trace, replays its graph
// for the first time and fills the run pools, which the runs of a sweep
// find done.
func warmUp(b *testing.B, cfg Config) {
	b.Helper()
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
}

// benchArtifact runs one experiment per iteration on a fresh runner so the
// result cache never amortizes across iterations.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	gcs := numGC()
	for i := 0; i < b.N; i++ {
		r := NewRunner(ExperimentOptions{Scale: ScaleQuick, Seed: 1})
		rep, err := r.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
	reportGCs(b, gcs)
}

// BenchmarkTableINomenclature regenerates Table I.
func BenchmarkTableINomenclature(b *testing.B) { benchArtifact(b, "table1") }

// BenchmarkTableIIPeakLoad regenerates Table II (analytic peak loads).
func BenchmarkTableIIPeakLoad(b *testing.B) { benchArtifact(b, "table2") }

// BenchmarkFigure2Traces regenerates the application characterization.
func BenchmarkFigure2Traces(b *testing.B) { benchArtifact(b, "fig2") }

// BenchmarkFigure3CommTime regenerates the 3 apps x 10 configs
// communication-time study.
func BenchmarkFigure3CommTime(b *testing.B) { benchArtifact(b, "fig3") }

// BenchmarkFigure4CR regenerates the CR hops/traffic/saturation study.
func BenchmarkFigure4CR(b *testing.B) { benchArtifact(b, "fig4") }

// BenchmarkFigure5FB regenerates the FB traffic/saturation study.
func BenchmarkFigure5FB(b *testing.B) { benchArtifact(b, "fig5") }

// BenchmarkFigure6AMG regenerates the AMG traffic/saturation study.
func BenchmarkFigure6AMG(b *testing.B) { benchArtifact(b, "fig6") }

// BenchmarkFigure7Sensitivity regenerates the message-size sensitivity
// sweep (3 apps x 7 scales x 4 configs + baselines).
func BenchmarkFigure7Sensitivity(b *testing.B) { benchArtifact(b, "fig7") }

// BenchmarkFigure8AMGBackground regenerates the AMG uniform-background
// interference study.
func BenchmarkFigure8AMGBackground(b *testing.B) { benchArtifact(b, "fig8") }

// BenchmarkFigure9CRBackground regenerates the CR uniform+bursty
// interference study.
func BenchmarkFigure9CRBackground(b *testing.B) { benchArtifact(b, "fig9") }

// BenchmarkFigure10FBBackground regenerates the FB uniform+bursty
// interference study.
func BenchmarkFigure10FBBackground(b *testing.B) { benchArtifact(b, "fig10") }

// BenchmarkSingleRunCR measures one simulation cell (CR, rand-min) — the
// unit of work every figure is built from.
func BenchmarkSingleRunCR(b *testing.B) {
	tr, _, err := BuildApp("CR", AppQuick)
	if err != nil {
		b.Fatal(err)
	}
	warmUp(b, MiniConfig(tr, Cell{Placement: RandomNode, Routing: Minimal}, 0))
	var events uint64
	gcs := numGC()
	for i := 0; i < b.N; i++ {
		cfg := MiniConfig(tr, Cell{Placement: RandomNode, Routing: Minimal}, int64(i))
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "sim_events/op")
	reportGCs(b, gcs)
}

// BenchmarkSingleRunAdaptive measures the adaptive-routing variant, whose
// route choice does extra candidate scoring per packet.
func BenchmarkSingleRunAdaptive(b *testing.B) {
	tr, _, err := BuildApp("CR", AppQuick)
	if err != nil {
		b.Fatal(err)
	}
	warmUp(b, MiniConfig(tr, Cell{Placement: RandomNode, Routing: Adaptive}, 0))
	var events uint64
	gcs := numGC()
	for i := 0; i < b.N; i++ {
		cfg := MiniConfig(tr, Cell{Placement: RandomNode, Routing: Adaptive}, int64(i))
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "sim_events/op")
	reportGCs(b, gcs)
}
