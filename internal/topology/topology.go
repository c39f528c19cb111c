// Package topology models the Cray XC40 dragonfly interconnect of the Theta
// system studied in the paper: groups of Aries routers arranged in a
// rows × cols grid, row and column all-to-all local links, global links
// between groups, and a fixed number of compute nodes per router. Each grid
// row of routers forms a chassis and a configurable number of chassis form a
// cabinet (three on Theta), which is what the random-cabinet and
// random-chassis placement policies select over.
package topology

import (
	"errors"
	"fmt"
)

// RouterID identifies a router; the numbering is group-major, then row-major
// within the group grid.
type RouterID int32

// NodeID identifies a compute node; nodes are numbered consecutively per
// router in router order, so contiguous node ranges correspond to physically
// adjacent hardware.
type NodeID int32

// Coord locates a router inside the machine.
type Coord struct {
	Group int
	Row   int
	Col   int
}

func (c Coord) String() string {
	return fmt.Sprintf("g%d/r%d/c%d", c.Group, c.Row, c.Col)
}

// Config describes a dragonfly machine. The zero value is invalid; use
// Theta() for the paper's system or fill the fields for a custom machine.
type Config struct {
	Groups               int // number of dragonfly groups
	Rows                 int // router grid rows per group (chassis per group)
	Cols                 int // router grid columns per group (routers per chassis)
	NodesPerRouter       int // compute nodes attached to each router
	GlobalPortsPerRouter int // global (inter-group) link ports per router
	ChassisPerCabinet    int // chassis grouped into one cabinet (Theta: 3)
}

// Theta returns the configuration of the Theta system as studied in the
// paper (Sec. II): 9 groups, 96 Aries routers per group in a 6 × 16 grid,
// 4 nodes per router, and enough global ports that every group pair is
// joined by many parallel links (10 ports/router → 120 links per pair).
func Theta() Config {
	return Config{
		Groups:               9,
		Rows:                 6,
		Cols:                 16,
		NodesPerRouter:       4,
		GlobalPortsPerRouter: 10,
		ChassisPerCabinet:    3,
	}
}

// Mini returns a small machine with the same structure as Theta (several
// groups, non-trivial grid, parallel global links) that keeps unit tests and
// benchmarks fast. 4 groups × (2×4) routers × 2 nodes = 64 nodes.
func Mini() Config {
	return Config{
		Groups:               4,
		Rows:                 2,
		Cols:                 4,
		NodesPerRouter:       2,
		GlobalPortsPerRouter: 3,
		ChassisPerCabinet:    1,
	}
}

// Quick returns the machine of the experiments' quick scale, structurally
// Theta-like (several groups, a non-square grid, distinguishable chassis
// and cabinets, parallel global links): 5 groups × (2×8) routers × 2 nodes
// = 160 nodes, and 16 routers × 4 global ports = 64 per group.
func Quick() Config {
	return Config{
		Groups:               5,
		Rows:                 2,
		Cols:                 8,
		NodesPerRouter:       2,
		GlobalPortsPerRouter: 4,
		ChassisPerCabinet:    2,
	}
}

// Validate reports whether the configuration describes a buildable machine.
func (c Config) Validate() error {
	switch {
	case c.Groups < 1:
		return errors.New("topology: Groups must be >= 1")
	case c.Rows < 1 || c.Cols < 1:
		return errors.New("topology: Rows and Cols must be >= 1")
	case c.NodesPerRouter < 1:
		return errors.New("topology: NodesPerRouter must be >= 1")
	case c.ChassisPerCabinet < 1:
		return errors.New("topology: ChassisPerCabinet must be >= 1")
	}
	return c.layout().validate()
}

// layout places every router of a group on the grid: all of them hold nodes
// and global ports, and a chassis is one grid row.
func (c Config) layout() layout {
	return layout{
		groups:            c.Groups,
		routersPerGroup:   c.RoutersPerGroup(),
		holders:           c.RoutersPerGroup(),
		nodesPerRouter:    c.NodesPerRouter,
		chassisSize:       c.Cols,
		chassisPerCabinet: c.ChassisPerCabinet,
		portsPerRouter:    c.GlobalPortsPerRouter,
	}
}

// RoutersPerGroup returns the router count of one group.
func (c Config) RoutersPerGroup() int { return c.Rows * c.Cols }

// Dragonfly is an immutable, fully wired XC40-style dragonfly machine: the
// shared group-major layout plus the row and column all-to-all local fabric.
type Dragonfly struct {
	cfg Config
	layout

	// nbrs holds every router's local neighbors, resolved once at
	// construction: degree consecutive entries per router, in router
	// order. LocalNeighbors hands out exact-size views of it.
	nbrs []RouterID
}

// New builds and wires a machine.
func New(cfg Config) (*Dragonfly, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Dragonfly{cfg: cfg, layout: cfg.layout()}
	t.wire(t)
	t.nbrs = make([]RouterID, 0, t.NumRouters()*t.degree())
	for r := 0; r < t.NumRouters(); r++ {
		c := t.RouterCoord(RouterID(r))
		for col := 0; col < cfg.Cols; col++ {
			if col != c.Col {
				t.nbrs = append(t.nbrs, t.RouterAt(c.Group, c.Row, col))
			}
		}
		for row := 0; row < cfg.Rows; row++ {
			if row != c.Row {
				t.nbrs = append(t.nbrs, t.RouterAt(c.Group, row, c.Col))
			}
		}
	}
	return t, nil
}

// degree is the local link count of every router: the rest of its row and
// the rest of its column.
func (t *Dragonfly) degree() int { return t.cfg.Cols - 1 + t.cfg.Rows - 1 }

// MustNew is New for known-good configurations (presets, tests).
func MustNew(cfg Config) *Dragonfly {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Build makes Config a Machine: it wires the described dragonfly.
func (c Config) Build() (Interconnect, error) { return New(c) }

// Label returns a compact, deterministic description of the machine shape,
// used when experiment reports need to say which machine they ran on.
func (c Config) Label() string {
	return fmt.Sprintf("dragonfly:g%d-r%dx%d-n%d", c.Groups, c.Rows, c.Cols, c.NodesPerRouter)
}

// CanonicalSpec renders every shape field into one deterministic string —
// the machine's identity for content-addressed result caching. Unlike Label
// (a human-facing summary that omits wiring details), two configs share a
// CanonicalSpec if and only if they build identical machines, so a cache
// keyed on it can never conflate differently wired fabrics. The
// farm-side coverage test fails if Config grows a field this misses.
func (c Config) CanonicalSpec() string {
	return fmt.Sprintf("dragonfly{groups=%d,rows=%d,cols=%d,nodes_per_router=%d,global_ports_per_router=%d,chassis_per_cabinet=%d}",
		c.Groups, c.Rows, c.Cols, c.NodesPerRouter, c.GlobalPortsPerRouter, c.ChassisPerCabinet)
}

// Config returns the machine's configuration.
func (t *Dragonfly) Config() Config { return t.cfg }

// Name identifies the topology family.
func (t *Dragonfly) Name() string { return "dragonfly" }

// RouterAt returns the router at a coordinate.
func (t *Dragonfly) RouterAt(group, row, col int) RouterID {
	return RouterID((group*t.cfg.Rows+row)*t.cfg.Cols + col)
}

// RouterCoord returns the coordinate of a router.
func (t *Dragonfly) RouterCoord(r RouterID) Coord {
	col := int(r) % t.cfg.Cols
	rest := int(r) / t.cfg.Cols
	row := rest % t.cfg.Rows
	return Coord{Group: rest / t.cfg.Rows, Row: row, Col: col}
}

// --- local connectivity ----------------------------------------------------

// SameRow reports whether two routers share a group grid row.
func (t *Dragonfly) SameRow(a, b RouterID) bool {
	ca, cb := t.RouterCoord(a), t.RouterCoord(b)
	return ca.Group == cb.Group && ca.Row == cb.Row
}

// SameCol reports whether two routers share a group grid column.
func (t *Dragonfly) SameCol(a, b RouterID) bool {
	ca, cb := t.RouterCoord(a), t.RouterCoord(b)
	return ca.Group == cb.Group && ca.Col == cb.Col
}

// LocalConnected reports whether a and b are joined by a local link
// (same group and same row or same column, a != b).
func (t *Dragonfly) LocalConnected(a, b RouterID) bool {
	if a == b {
		return false
	}
	return t.SameRow(a, b) || t.SameCol(a, b)
}

// LocalNeighbors returns the routers joined to r by local links: the rest of
// its row, then the rest of its column. The returned slice is shared
// (resolved once at construction); callers must not mutate it.
func (t *Dragonfly) LocalNeighbors(r RouterID) []RouterID {
	d := t.degree()
	i := int(r) * d
	return t.nbrs[i : i+d : i+d]
}

// LocalDistance returns the intra-group hop distance between two routers of
// the same group: 0 (same router), 1 (same row or column) or 2.
// It panics if the routers are in different groups.
func (t *Dragonfly) LocalDistance(a, b RouterID) int {
	ca, cb := t.RouterCoord(a), t.RouterCoord(b)
	if ca.Group != cb.Group {
		panic(fmt.Sprintf("topology: LocalDistance across groups: %v vs %v", ca, cb))
	}
	switch {
	case a == b:
		return 0
	case ca.Row == cb.Row || ca.Col == cb.Col:
		return 1
	default:
		return 2
	}
}

// LocalNextHop returns the router after cur on the canonical minimal
// intra-group route from cur to dst: row first (move to dst's column within
// cur's row), then column. Walking LocalNextHop until dst reproduces exactly
// the dimension-ordered segment minimal routing uses, so the per-class local
// channel dependency graph stays acyclic. cur == dst returns dst. It panics
// if the routers are in different groups.
func (t *Dragonfly) LocalNextHop(cur, dst RouterID) RouterID {
	cc, cd := t.RouterCoord(cur), t.RouterCoord(dst)
	if cc.Group != cd.Group {
		panic(fmt.Sprintf("topology: LocalNextHop across groups: %v vs %v", cc, cd))
	}
	if cc.Col != cd.Col {
		return t.RouterAt(cc.Group, cc.Row, cd.Col)
	}
	return dst
}

// Describe returns a human-readable inventory of the machine — the textual
// equivalent of the paper's Figure 1 system diagram.
func (t *Dragonfly) Describe() string {
	c := t.cfg
	localPerRouter := t.degree()
	wired := len(t.GlobalConns())
	return fmt.Sprintf(
		"dragonfly: %d groups x (%dx%d routers) x %d nodes = %d routers, %d nodes\n"+
			"  chassis: %d (one per grid row), cabinets: %d (%d chassis each)\n"+
			"  local links/router: %d (row all-to-all + column all-to-all)\n"+
			"  global ports/router: %d; bidirectional global links: %d (%d per group pair)\n",
		c.Groups, c.Rows, c.Cols, c.NodesPerRouter, t.NumRouters(), t.NumNodes(),
		t.ChassisCount(), t.CabinetCount(), c.ChassisPerCabinet,
		localPerRouter,
		c.GlobalPortsPerRouter, wired, perPairOrZero(wired, c.Groups),
	)
}
