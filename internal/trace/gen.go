// Dependency-graph workload generators — AI collective and storage traffic
// built directly on the graph IR, expressing pipelined structure (a ring
// all-reduce step depending only on the previous step's receive, a windowed
// all-to-all) that flat fence-punctuated op lists cannot. Each generator is
// parameterized by ranks, payload, and rounds and validates its output. The
// application catalog names every built-in application, flat or graph, and
// holds its config at each Size, so every CLI and the experiments see one
// application set at one set of sizes.
package trace

import (
	"fmt"
	"strings"

	"dragonfly/internal/des"
)

// Size selects the config a built-in application is built at; every
// catalog entry has one for each.
type Size int

const (
	// Paper is the paper's size, the Default* configs (1,000-rank CR and FB,
	// 1,728-rank AMG), which fit Theta.
	Paper Size = iota
	// Quick fits the experiments' 160-node quick-scale machines.
	Quick
	// Mini fits the 64-node mini machine; dfsim uses it on machines of at
	// most 256 nodes.
	Mini
	numSizes
)

// app is one entry of the application catalog: its name, whether it is a
// graph generator, and its workload at each Size.
type app struct {
	name  string
	graph bool
	build func(Size) (*Trace, *Graph, error)
}

// flatApp registers a flat miniapp trace generator with its Paper, Quick
// and Mini configs.
func flatApp[C any](name string, gen func(C) (*Trace, error), paper, quick, mini C) app {
	cfgs := [numSizes]C{paper, quick, mini}
	return app{name: name, build: func(s Size) (*Trace, *Graph, error) {
		tr, err := gen(cfgs[s])
		return tr, nil, err
	}}
}

// graphApp registers a dependency-graph generator with its Paper, Quick and
// Mini configs.
func graphApp[C any](name string, gen func(C) (*Graph, error), paper, quick, mini C) app {
	cfgs := [numSizes]C{paper, quick, mini}
	return app{name: name, graph: true, build: func(s Size) (*Trace, *Graph, error) {
		g, err := gen(cfgs[s])
		return nil, g, err
	}}
}

// catalog is every built-in application, each at its Paper, Quick and Mini
// configs in that order: the paper's flat miniapp traces first, then the
// graph generators. Names are uppercase; the order is the display order.
var catalog = []app{
	flatApp("CR", CR, DefaultCR(),
		CRConfig{Ranks: 64, MessageBytes: 24 * KB},
		CRConfig{Ranks: 32, MessageBytes: 16 * KB}),
	flatApp("FB", FB, DefaultFB(),
		FBConfig{X: 4, Y: 4, Z: 4, Iterations: 2, MinBytes: 6 * KB, MaxBytes: 160 * KB,
			FarPartners: 2, FarFraction: 0.1, Seed: 1},
		FBConfig{X: 3, Y: 3, Z: 3, Iterations: 2, MinBytes: 4 * KB, MaxBytes: 64 * KB,
			FarPartners: 1, FarFraction: 0.1, Seed: 1}),
	flatApp("AMG", AMG, DefaultAMG(),
		AMGConfig{X: 4, Y: 4, Z: 4, Cycles: 3, Levels: 4, PeakBytes: 10 * KB},
		AMGConfig{X: 3, Y: 3, Z: 3, Cycles: 3, Levels: 3, PeakBytes: 16 * KB}),
	graphApp("RING", RingAllReduce, DefaultRing(),
		RingAllReduceConfig{Ranks: 64, Bytes: 512 * KB, Rounds: 1},
		RingAllReduceConfig{Ranks: 16, Bytes: 64 * KB, Rounds: 1}),
	graphApp("TREE", TreeAllReduce, DefaultTree(),
		TreeAllReduceConfig{Ranks: 64, Bytes: 96 * KB, Rounds: 2},
		TreeAllReduceConfig{Ranks: 16, Bytes: 32 * KB, Rounds: 2}),
	graphApp("MOE", MoEAllToAll, DefaultMoE(),
		MoEAllToAllConfig{Ranks: 48, Bytes: 48 * KB, Rounds: 1, Window: 8},
		MoEAllToAllConfig{Ranks: 16, Bytes: 16 * KB, Rounds: 1, Window: 4}),
	graphApp("HALO2D", Halo, DefaultHalo2D(),
		HaloConfig{X: 8, Y: 8, Bytes: 64 * KB, Rounds: 2},
		HaloConfig{X: 4, Y: 4, Bytes: 16 * KB, Rounds: 2}),
	graphApp("HALO3D", Halo, DefaultHalo3D(),
		HaloConfig{X: 4, Y: 4, Z: 4, Bytes: 32 * KB, Rounds: 2},
		HaloConfig{X: 3, Y: 3, Z: 3, Bytes: 8 * KB, Rounds: 2}),
	graphApp("CKPT", Checkpoint, DefaultCheckpoint(),
		CheckpointConfig{Clients: 56, Servers: 8, Bytes: 1024 * KB, Rounds: 1, Delay: 20 * des.Microsecond},
		CheckpointConfig{Clients: 12, Servers: 4, Bytes: 256 * KB, Rounds: 1, Delay: 20 * des.Microsecond}),
}

// find returns the catalog entry an application name names, matched
// case-insensitively; the error lists the full application set.
func find(s string) (app, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	for _, a := range catalog {
		if a.name == u {
			return a, nil
		}
	}
	return app{}, fmt.Errorf("trace: unknown application %q (want %s)",
		strings.TrimSpace(s), strings.Join(Apps(), ", "))
}

// Apps returns every built-in application name in catalog order. CLI -app
// grammars and their unknown-app errors draw on this one registry.
func Apps() []string {
	out := make([]string, len(catalog))
	for i, a := range catalog {
		out[i] = a.name
	}
	return out
}

// GraphApps returns the graph-generator application names.
func GraphApps() []string {
	var out []string
	for _, a := range catalog {
		if a.graph {
			out = append(out, a.name)
		}
	}
	return out
}

// IsGraphApp reports whether name names a graph generator (as opposed to a
// flat miniapp trace).
func IsGraphApp(name string) bool {
	a, err := find(name)
	return err == nil && a.graph
}

// ParseApp canonicalizes an application name against the registry,
// case-insensitively: "ring" and "RING" both resolve to "RING". The error
// lists the full application set.
func ParseApp(s string) (string, error) {
	a, err := find(s)
	return a.name, err
}

// BuildApp builds the named application, matched as ParseApp matches it, at
// the given size: a trace for the paper's flat miniapps, a dependency graph
// for the generators. The other result is nil.
func BuildApp(name string, size Size) (*Trace, *Graph, error) {
	if size < 0 || size >= numSizes {
		return nil, nil, fmt.Errorf("trace: unknown application size %d", size)
	}
	a, err := find(name)
	if err != nil {
		return nil, nil, err
	}
	return a.build(size)
}

// depOn returns a single-dependency list, or nil for a negative id.
func depOn(id int32) []int32 {
	if id < 0 {
		return nil
	}
	return []int32{id}
}

// RingAllReduceConfig parameterizes the ring all-reduce generator.
type RingAllReduceConfig struct {
	Ranks  int
	Bytes  int64 // reduced vector size per rank; chunks are Bytes/Ranks
	Rounds int   // back-to-back all-reduces (training steps)
}

// DefaultRing is a data-parallel training flavor: a large
// gradient vector reduced across a moderate rank count.
func DefaultRing() RingAllReduceConfig {
	return RingAllReduceConfig{Ranks: 256, Bytes: 16 * 1024 * KB, Rounds: 2}
}

// RingAllReduce generates the bandwidth-optimal ring all-reduce: each rank
// passes vector chunks around the ring for 2(N-1) steps — N-1 reduce-
// scatter steps then N-1 allgather steps. The graph is pipelined: step s's
// send depends on step s-1's receive (the chunk being forwarded), never on
// a global fence, so successive steps overlap across the ring.
func RingAllReduce(cfg RingAllReduceConfig) (*Graph, error) {
	if cfg.Ranks < 2 || cfg.Bytes < 1 || cfg.Rounds < 1 {
		return nil, fmt.Errorf("trace: bad RING config %+v", cfg)
	}
	n := cfg.Ranks
	steps := 2 * (n - 1)
	chunk := cfg.Bytes / int64(n)
	if chunk < 1 {
		chunk = 1
	}
	g := &Graph{App: "RING", Ranks: make([][]GraphNode, n)}
	for r := 0; r < n; r++ {
		right := int32((r + 1) % n)
		left := int32((r - 1 + n) % n)
		nodes := make([]GraphNode, 0, 2*steps*cfg.Rounds)
		for round := 0; round < cfg.Rounds; round++ {
			base := int32(round * 2 * steps)
			for s := 0; s < steps; s++ {
				tag := int32(round*steps + s)
				send := GraphNode{Kind: NodeSend, Peer: right, Bytes: chunk, Tag: tag}
				recv := GraphNode{Kind: NodeRecv, Peer: left, Bytes: chunk, Tag: tag}
				switch {
				case s > 0:
					// Forward what the previous step received; the previous
					// send must also have left the NIC (buffer reuse).
					send.Deps = []int32{base + int32(2*s) - 2, base + int32(2*s) - 1}
					recv.Deps = depOn(base + int32(2*s) - 1)
				case round > 0:
					// A new all-reduce starts when the previous one ended.
					send.Deps = depOn(base - 1)
					recv.Deps = depOn(base - 1)
				}
				nodes = append(nodes, send, recv)
			}
		}
		g.Ranks[r] = nodes
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// TreeAllReduceConfig parameterizes the binomial-tree all-reduce generator.
type TreeAllReduceConfig struct {
	Ranks  int
	Bytes  int64 // full vector carried on every hop
	Rounds int
}

// DefaultTree is a latency-bound flavor: small payloads
// where the 2·log2(N) hop count beats the ring's 2(N-1).
func DefaultTree() TreeAllReduceConfig {
	return TreeAllReduceConfig{Ranks: 256, Bytes: 64 * KB, Rounds: 4}
}

// TreeAllReduce generates a binomial-tree all-reduce: a reduce to rank 0
// ascending the bit lattice, then the mirrored broadcast back down. Each
// rank's ops form a serial dependency chain — the tree's critical path is
// the full vector times 2·ceil(log2 N) hops.
func TreeAllReduce(cfg TreeAllReduceConfig) (*Graph, error) {
	if cfg.Ranks < 2 || cfg.Bytes < 1 || cfg.Rounds < 1 {
		return nil, fmt.Errorf("trace: bad TREE config %+v", cfg)
	}
	n := cfg.Ranks
	bits := 0
	for 1<<bits < n {
		bits++
	}
	g := &Graph{App: "TREE", Ranks: make([][]GraphNode, n)}
	for r := 0; r < n; r++ {
		var nodes []GraphNode
		prev := int32(-1)
		emit := func(kind NodeKind, peer int, tag int32) {
			nodes = append(nodes, GraphNode{
				Kind: kind, Peer: int32(peer), Bytes: cfg.Bytes, Tag: tag, Deps: depOn(prev),
			})
			prev = int32(len(nodes)) - 1
		}
		for round := 0; round < cfg.Rounds; round++ {
			tagBase := int32(round * 2 * bits)
			// Reduce: receive from each child (set bits above my lowest),
			// then send up at my lowest set bit. Rank 0 only receives.
			type hop struct {
				up   bool // true: send toward root
				peer int
				bit  int
			}
			var hops []hop
			for mask := 1; mask < n; mask <<= 1 {
				bit := 0
				for 1<<bit != mask {
					bit++
				}
				if r&mask != 0 {
					hops = append(hops, hop{up: true, peer: r - mask, bit: bit})
					break
				}
				if r+mask < n {
					hops = append(hops, hop{up: false, peer: r + mask, bit: bit})
				}
			}
			for _, h := range hops {
				kind := NodeRecv
				if h.up {
					kind = NodeSend
				}
				emit(kind, h.peer, tagBase+int32(h.bit))
			}
			// Broadcast: the exact mirror, reversed — receive the result
			// from the parent, then fan it back out to the children.
			for i := len(hops) - 1; i >= 0; i-- {
				h := hops[i]
				kind := NodeSend
				if h.up {
					kind = NodeRecv
				}
				emit(kind, h.peer, tagBase+int32(bits+h.bit))
			}
		}
		g.Ranks[r] = nodes
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MoEAllToAllConfig parameterizes the MoE-style all-to-all generator.
type MoEAllToAllConfig struct {
	Ranks  int
	Bytes  int64 // expert-routed payload per (rank, peer) pair per phase
	Rounds int   // MoE layers; each layer is a dispatch + combine pair
	// Window caps in-flight sends per rank per phase (0 = unlimited): send
	// k may only start once send k-Window has left the NIC.
	Window int
}

// DefaultMoE is an expert-parallel inference flavor.
func DefaultMoE() MoEAllToAllConfig {
	return MoEAllToAllConfig{Ranks: 64, Bytes: 256 * KB, Rounds: 2, Window: 8}
}

// MoEAllToAll generates the expert-parallel traffic of a mixture-of-experts
// layer: per round, a dispatch all-to-all (tokens to experts) and a combine
// all-to-all (results back), separated by a zero-delay join. Every rank
// sends to every other in rank-shifted order (r+1, r+2, …) so no peer is a
// simultaneous hotspot; Window throttles per-rank injection pressure.
func MoEAllToAll(cfg MoEAllToAllConfig) (*Graph, error) {
	if cfg.Ranks < 2 || cfg.Bytes < 1 || cfg.Rounds < 1 || cfg.Window < 0 {
		return nil, fmt.Errorf("trace: bad MOE config %+v", cfg)
	}
	n := cfg.Ranks
	g := &Graph{App: "MOE", Ranks: make([][]GraphNode, n)}
	for r := 0; r < n; r++ {
		var nodes []GraphNode
		prevJoin := int32(-1)
		for phase := 0; phase < 2*cfg.Rounds; phase++ {
			tag := int32(phase)
			phaseStart := int32(len(nodes))
			for k := 1; k < n; k++ {
				peer := int32((r + k) % n)
				nodes = append(nodes, GraphNode{
					Kind: NodeRecv, Peer: peer, Bytes: cfg.Bytes, Tag: tag, Deps: depOn(prevJoin),
				})
			}
			sendBase := int32(len(nodes))
			for k := 1; k < n; k++ {
				peer := int32((r + k) % n)
				deps := depOn(prevJoin)
				if cfg.Window > 0 && k > cfg.Window {
					window := sendBase + int32(k-1-cfg.Window)
					if prevJoin >= 0 {
						deps = []int32{prevJoin, window}
					} else {
						deps = []int32{window}
					}
				}
				nodes = append(nodes, GraphNode{
					Kind: NodeSend, Peer: peer, Bytes: cfg.Bytes, Tag: tag, Deps: deps,
				})
			}
			joinDeps := make([]int32, 0, len(nodes)-int(phaseStart))
			for id := phaseStart; id < int32(len(nodes)); id++ {
				joinDeps = append(joinDeps, id)
			}
			prevJoin = int32(len(nodes))
			nodes = append(nodes, GraphNode{Kind: NodeCompute, Deps: joinDeps})
		}
		g.Ranks[r] = nodes
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// HaloConfig parameterizes the halo-exchange generator. Axes with extent 1
// do not exchange; Z up to 1 selects the 2-D variant.
type HaloConfig struct {
	X, Y, Z int
	Bytes   int64 // face payload per neighbor per round
	Rounds  int
	// Delay is the per-round stencil compute time, applied at each rank's
	// local join (0 = pure exchange).
	Delay des.Time
}

// DefaultHalo2D is a 2-D stencil flavor.
func DefaultHalo2D() HaloConfig {
	return HaloConfig{X: 16, Y: 16, Bytes: 512 * KB, Rounds: 4}
}

// DefaultHalo3D is a 3-D stencil flavor.
func DefaultHalo3D() HaloConfig {
	return HaloConfig{X: 8, Y: 8, Z: 8, Bytes: 128 * KB, Rounds: 4}
}

// Halo generates a periodic 2-D/3-D halo exchange: per round each rank
// posts receives from every grid neighbor, sends its faces, then joins
// locally (a per-rank fence, optionally carrying the stencil's compute
// delay) before the next round. Unlike the flat miniapps there is no
// global fence: a rank's round r+1 waits only on its own round r.
func Halo(cfg HaloConfig) (*Graph, error) {
	x, y, z := cfg.X, cfg.Y, cfg.Z
	if z < 1 {
		z = 1
	}
	if x < 1 || y < 1 || cfg.Bytes < 1 || cfg.Rounds < 1 || cfg.Delay < 0 {
		return nil, fmt.Errorf("trace: bad halo config %+v", cfg)
	}
	if x < 2 && y < 2 && z < 2 {
		return nil, fmt.Errorf("trace: halo grid %dx%dx%d has no axis to exchange along", x, y, z)
	}
	app := "HALO3D"
	if z == 1 {
		app = "HALO2D"
	}
	n := x * y * z
	rankOf := func(cx, cy, cz int) int32 {
		return int32((cz*y+cy)*x + cx)
	}
	// Directions of travel; a message tagged with direction d is received
	// from the neighbor on the opposite side. Axes of extent 1 are skipped;
	// extent 2 makes both neighbors the same rank, disambiguated by tag.
	type dir struct {
		d          int32 // tag component
		dx, dy, dz int
	}
	var dirs []dir
	if x >= 2 {
		dirs = append(dirs, dir{0, 1, 0, 0}, dir{1, -1, 0, 0})
	}
	if y >= 2 {
		dirs = append(dirs, dir{2, 0, 1, 0}, dir{3, 0, -1, 0})
	}
	if z >= 2 {
		dirs = append(dirs, dir{4, 0, 0, 1}, dir{5, 0, 0, -1})
	}
	g := &Graph{App: app, Ranks: make([][]GraphNode, n)}
	for cz := 0; cz < z; cz++ {
		for cy := 0; cy < y; cy++ {
			for cx := 0; cx < x; cx++ {
				r := rankOf(cx, cy, cz)
				nodes := make([]GraphNode, 0, (2*len(dirs)+1)*cfg.Rounds)
				prevJoin := int32(-1)
				for round := 0; round < cfg.Rounds; round++ {
					tagBase := int32(round * 6)
					roundStart := int32(len(nodes))
					for _, v := range dirs {
						// Sender of my direction-d halo sits on the opposite side.
						peer := rankOf(
							((cx-v.dx)%x+x)%x, ((cy-v.dy)%y+y)%y, ((cz-v.dz)%z+z)%z,
						)
						nodes = append(nodes, GraphNode{
							Kind: NodeRecv, Peer: peer, Bytes: cfg.Bytes,
							Tag: tagBase + v.d, Deps: depOn(prevJoin),
						})
					}
					for _, v := range dirs {
						peer := rankOf(
							((cx+v.dx)%x+x)%x, ((cy+v.dy)%y+y)%y, ((cz+v.dz)%z+z)%z,
						)
						nodes = append(nodes, GraphNode{
							Kind: NodeSend, Peer: peer, Bytes: cfg.Bytes,
							Tag: tagBase + v.d, Deps: depOn(prevJoin),
						})
					}
					joinDeps := make([]int32, 0, len(nodes)-int(roundStart))
					for id := roundStart; id < int32(len(nodes)); id++ {
						joinDeps = append(joinDeps, id)
					}
					prevJoin = int32(len(nodes))
					nodes = append(nodes, GraphNode{Kind: NodeCompute, Delay: cfg.Delay, Deps: joinDeps})
				}
				g.Ranks[r] = nodes
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// CheckpointConfig parameterizes the bursty checkpoint/storage generator.
type CheckpointConfig struct {
	Clients int // compute ranks 0..Clients-1
	Servers int // storage ranks Clients..Clients+Servers-1
	Bytes   int64
	Rounds  int
	// Delay is each client's compute interval between checkpoint epochs;
	// all clients release their writes simultaneously — the incast burst.
	Delay des.Time
}

// DefaultCheckpoint is a defensive-I/O flavor: many clients funneling
// large state into few storage targets on a compute interval.
func DefaultCheckpoint() CheckpointConfig {
	return CheckpointConfig{Clients: 56, Servers: 8, Bytes: 4 * 1024 * KB, Rounds: 2, Delay: 50 * des.Microsecond}
}

// Checkpoint generates bursty checkpoint traffic: per round every client
// computes for Delay, then writes Bytes to its storage server (client c
// targets server c mod Servers). The shared compute interval synchronizes
// the bursts, so each round is an incast onto the storage ranks. Servers
// only receive; a server outnumbered by Servers > Clients holds no traffic.
func Checkpoint(cfg CheckpointConfig) (*Graph, error) {
	if cfg.Clients < 1 || cfg.Servers < 1 || cfg.Bytes < 1 || cfg.Rounds < 1 || cfg.Delay < 0 {
		return nil, fmt.Errorf("trace: bad CKPT config %+v", cfg)
	}
	n := cfg.Clients + cfg.Servers
	g := &Graph{App: "CKPT", Ranks: make([][]GraphNode, n)}
	for c := 0; c < cfg.Clients; c++ {
		server := int32(cfg.Clients + c%cfg.Servers)
		nodes := make([]GraphNode, 0, 2*cfg.Rounds)
		prev := int32(-1)
		for round := 0; round < cfg.Rounds; round++ {
			nodes = append(nodes, GraphNode{Kind: NodeCompute, Delay: cfg.Delay, Deps: depOn(prev)})
			prev = int32(len(nodes)) - 1
			nodes = append(nodes, GraphNode{
				Kind: NodeSend, Peer: server, Bytes: cfg.Bytes, Tag: int32(round), Deps: depOn(prev),
			})
			prev = int32(len(nodes)) - 1
		}
		g.Ranks[c] = nodes
	}
	for s := 0; s < cfg.Servers; s++ {
		var clients []int32
		for c := 0; c < cfg.Clients; c++ {
			if c%cfg.Servers == s {
				clients = append(clients, int32(c))
			}
		}
		var nodes []GraphNode
		prevJoin := int32(-1)
		for round := 0; round < cfg.Rounds; round++ {
			roundStart := int32(len(nodes))
			for _, c := range clients {
				nodes = append(nodes, GraphNode{
					Kind: NodeRecv, Peer: c, Bytes: cfg.Bytes, Tag: int32(round), Deps: depOn(prevJoin),
				})
			}
			if len(clients) == 0 {
				continue
			}
			joinDeps := make([]int32, 0, len(nodes)-int(roundStart))
			for id := roundStart; id < int32(len(nodes)); id++ {
				joinDeps = append(joinDeps, id)
			}
			prevJoin = int32(len(nodes))
			nodes = append(nodes, GraphNode{Kind: NodeCompute, Deps: joinDeps})
		}
		g.Ranks[cfg.Clients+s] = nodes
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
