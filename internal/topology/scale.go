package topology

import "fmt"

// ScaleConfig synthesizes a buildable machine of the given family with at
// least the requested router count, for the scale benchmarks and the
// scale-smoke validation (the -routers / -scale-shape flags). The group shape
// is fixed per family — XC40 keeps Theta's 6x16 grid, Dragonfly+ a 24-leaf /
// 12-spine group — and the group count grows; global ports per router scale
// so the canonical round-robin wiring still reaches every group pair
// (Gateways(a,b) non-empty, the SPI contract). One node per leaf keeps the
// node-side arrays proportional to routers, not a multiple of them.
func ScaleConfig(family string, routers int) (Machine, error) {
	if routers < 1 {
		return nil, fmt.Errorf("topology: scale shape needs routers >= 1, got %d", routers)
	}
	switch family {
	case "df", "dragonfly":
		const rows, cols = 6, 16
		rpg := rows * cols
		groups := (routers + rpg - 1) / rpg
		if groups < 2 {
			groups = 2
		}
		// Port budget: routers*G ports per group must cover the G-1 peer
		// groups. Theta's 10 ports/router reach 961 groups (92k routers);
		// beyond that the ports grow with the machine.
		ports := 10
		if need := (groups - 1 + rpg - 1) / rpg; ports < need {
			ports = need
		}
		return Config{
			Groups:               groups,
			Rows:                 rows,
			Cols:                 cols,
			NodesPerRouter:       1,
			GlobalPortsPerRouter: ports,
			ChassisPerCabinet:    3,
		}, nil
	case "dfplus", "dragonfly+":
		const leaves, spines = 24, 12
		rpg := leaves + spines
		groups := (routers + rpg - 1) / rpg
		if groups < 2 {
			groups = 2
		}
		ports := 2
		if need := (groups - 1 + spines - 1) / spines; ports < need {
			ports = need
		}
		return PlusConfig{
			Groups:              groups,
			Leaves:              leaves,
			Spines:              spines,
			NodesPerLeaf:        1,
			GlobalPortsPerSpine: ports,
			LeavesPerChassis:    4,
			ChassisPerCabinet:   3,
		}, nil
	}
	return nil, fmt.Errorf("topology: unknown scale family %q (want df or dfplus)", family)
}
