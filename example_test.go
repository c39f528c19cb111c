package dragonfly_test

import (
	"fmt"

	"dragonfly"
)

// ExampleRun simulates the crystal router at its mini size on the small
// machine under random-node placement with minimal routing and reports
// completion.
func ExampleRun() {
	tr, _, err := dragonfly.BuildApp("CR", dragonfly.AppMini)
	if err != nil {
		panic(err)
	}
	cfg := dragonfly.MiniConfig(tr, dragonfly.Cell{
		Placement: dragonfly.RandomNode,
		Routing:   dragonfly.Minimal,
	}, 1)
	res, err := dragonfly.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("completed:", res.Completed)
	fmt.Println("ranks measured:", len(res.CommTimes))
	// Output:
	// completed: true
	// ranks measured: 32
}

// ExampleRunMulti co-runs two applications sharing the machine.
func ExampleRunMulti() {
	amg, _ := dragonfly.AMGTrace(dragonfly.AMGConfig{
		X: 3, Y: 3, Z: 3, Cycles: 1, Levels: 2, PeakBytes: 8 * 1024,
	})
	cr, _ := dragonfly.CRTrace(dragonfly.CRConfig{Ranks: 16, MessageBytes: 16 * 1024})
	res, err := dragonfly.RunMulti(dragonfly.MultiConfig{
		Topology: dragonfly.MiniTopology(),
		Params:   dragonfly.DefaultParams(),
		Routing:  dragonfly.Adaptive,
		Seed:     1,
		Jobs: []dragonfly.JobSpec{
			{Name: "AMG", Trace: amg, Placement: dragonfly.Contiguous},
			{Name: "CR", Trace: cr, Placement: dragonfly.RandomNode},
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("all jobs completed:", res.Completed())
	fmt.Println("jobs:", len(res.Jobs))
	// Output:
	// all jobs completed: true
	// jobs: 2
}

// ExampleCell_Name shows the paper's Table I naming scheme.
func ExampleCell_Name() {
	cell := dragonfly.Cell{Placement: dragonfly.RandomChassis, Routing: dragonfly.Adaptive}
	fmt.Println(cell.Name())
	// Output: chas-adp
}

// ExampleNewTopology prints the paper's machine inventory (Figure 1).
func ExampleNewTopology() {
	topo, err := dragonfly.NewTopology(dragonfly.Theta())
	if err != nil {
		panic(err)
	}
	fmt.Println(topo.NumGroups(), "groups,", topo.NumRouters(), "routers,", topo.NumNodes(), "nodes")
	// Output: 9 groups, 864 routers, 3456 nodes
}
