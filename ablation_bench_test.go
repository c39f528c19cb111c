package dragonfly

// Ablation benchmarks for the design choices called out in DESIGN.md. Each
// benchmark runs one simulation cell per iteration with one knob moved off
// its default and reports the resulting maximum communication time
// (max_comm_ms) alongside wall time, so `go test -bench=Ablation` shows how
// much each choice matters to both fidelity and simulator cost.

import (
	"testing"

	"dragonfly/internal/routing"
)

// ablationWorkload is a congestion-prone cell: the quick crystal router
// under contiguous placement and adaptive routing, where gateway spreading,
// misrouting bias, and buffering all matter.
func ablationWorkload(b *testing.B) *Trace {
	b.Helper()
	tr, err := CRTrace(CRConfig{Ranks: 64, MessageBytes: 48 * 1024})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func runAblation(b *testing.B, mutate func(*Config)) {
	b.Helper()
	tr := ablationWorkload(b)
	cfg := MiniConfig(tr, Cell{Placement: Contiguous, Routing: Adaptive}, 1)
	mutate(&cfg)
	warmUp(b, cfg)
	var totalMs float64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("ablation run did not complete")
		}
		totalMs += res.MaxCommTime().Milliseconds()
	}
	b.ReportMetric(totalMs/float64(b.N), "max_comm_ms")
}

// --- gateway selection -------------------------------------------------------

func BenchmarkAblationGatewaySpread(b *testing.B) {
	runAblation(b, func(cfg *Config) { cfg.Params.Route.Gateway = routing.GatewaySpread })
}

func BenchmarkAblationGatewayNearest(b *testing.B) {
	runAblation(b, func(cfg *Config) { cfg.Params.Route.Gateway = routing.GatewayNearest })
}

func BenchmarkAblationGatewayRandom(b *testing.B) {
	runAblation(b, func(cfg *Config) { cfg.Params.Route.Gateway = routing.GatewayRandom })
}

// --- UGAL minimal bias -------------------------------------------------------

func BenchmarkAblationBiasDefault(b *testing.B) {
	runAblation(b, func(cfg *Config) {})
}

func BenchmarkAblationBiasZero(b *testing.B) {
	// Eager misrouting: any backlog advantage triggers a Valiant path.
	runAblation(b, func(cfg *Config) { cfg.Params.Route.MinimalBias = -1 })
}

func BenchmarkAblationBiasHuge(b *testing.B) {
	// Effectively never misroute: adaptive degenerates to minimal.
	runAblation(b, func(cfg *Config) { cfg.Params.Route.MinimalBias = 512 * 1024 })
}

// --- Valiant candidate count -------------------------------------------------

func BenchmarkAblationValiant1(b *testing.B) {
	runAblation(b, func(cfg *Config) { cfg.Params.Route.ValiantCandidates = 1 })
}

func BenchmarkAblationValiant4(b *testing.B) {
	runAblation(b, func(cfg *Config) { cfg.Params.Route.ValiantCandidates = 4 })
}

// --- packet size ---------------------------------------------------------------

func benchPacket(b *testing.B, bytes int) {
	runAblation(b, func(cfg *Config) {
		cfg.Params.PacketBytes = bytes
		// Keep buffers >= one packet so the configuration stays valid.
		if cfg.Params.TerminalVCBuffer < bytes {
			cfg.Params.TerminalVCBuffer = bytes
		}
		if cfg.Params.LocalVCBuffer < bytes {
			cfg.Params.LocalVCBuffer = bytes
		}
		if cfg.Params.GlobalVCBuffer < bytes {
			cfg.Params.GlobalVCBuffer = bytes
		}
	})
}

func BenchmarkAblationPacket1K(b *testing.B)  { benchPacket(b, 1024) }
func BenchmarkAblationPacket4K(b *testing.B)  { benchPacket(b, 4096) }
func BenchmarkAblationPacket16K(b *testing.B) { benchPacket(b, 16384) }

// --- VC buffer depth -----------------------------------------------------------

func benchBuffers(b *testing.B, factor int) {
	runAblation(b, func(cfg *Config) {
		if factor > 0 {
			cfg.Params.TerminalVCBuffer *= factor
			cfg.Params.LocalVCBuffer *= factor
			cfg.Params.GlobalVCBuffer *= factor
		} else {
			// Halve, clamped to one packet.
			half := func(v int) int {
				if v/2 < cfg.Params.PacketBytes {
					return cfg.Params.PacketBytes
				}
				return v / 2
			}
			cfg.Params.TerminalVCBuffer = half(cfg.Params.TerminalVCBuffer)
			cfg.Params.LocalVCBuffer = half(cfg.Params.LocalVCBuffer)
			cfg.Params.GlobalVCBuffer = half(cfg.Params.GlobalVCBuffer)
		}
	})
}

func BenchmarkAblationBuffersHalf(b *testing.B)   { benchBuffers(b, 0) }
func BenchmarkAblationBuffersPaper(b *testing.B)  { benchBuffers(b, 1) }
func BenchmarkAblationBuffersDouble(b *testing.B) { benchBuffers(b, 2) }
