// Sensitivity: the paper's Figure 7 in miniature — sweep the message-size
// scale of the crystal router and watch the crossover between localized
// (cont-min) and balanced (rand-adp/rand-min) configurations as the
// communication intensity grows.
package main

import (
	"fmt"
	"log"

	"dragonfly"
)

func main() {
	tr, _, err := dragonfly.BuildApp("CR", dragonfly.AppQuick)
	if err != nil {
		log.Fatal(err)
	}
	scales := []float64{0.01, 0.1, 0.5, 1, 2}
	cells := dragonfly.ExtremeCells()

	fmt.Println("CR max communication time relative to rand-adp (%), by message scale")
	fmt.Printf("%-8s", "scale")
	for _, c := range cells {
		fmt.Printf("  %-9s", c.Name())
	}
	fmt.Println()

	baseline := dragonfly.Cell{Placement: dragonfly.RandomNode, Routing: dragonfly.Adaptive}
	for _, s := range scales {
		base := runAt(tr, baseline, s)
		fmt.Printf("%-8g", s)
		for _, cell := range cells {
			v := runAt(tr, cell, s)
			fmt.Printf("  %-9.1f", 100*float64(v)/float64(base))
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("as intensity grows, the advantage of localized placement shrinks and")
	fmt.Println("minimal routing loses ground to adaptive (paper Sec. IV-B; at the")
	fmt.Println("paper's full scale the balanced configurations overtake — run")
	fmt.Println("`dfsweep -exp fig7 -scale paper`).")
}

func runAt(tr *dragonfly.Trace, cell dragonfly.Cell, scale float64) dragonfly.Time {
	cfg := dragonfly.MiniConfig(tr, cell, 2)
	cfg.MsgScale = scale
	res, err := dragonfly.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res.MaxCommTime()
}
