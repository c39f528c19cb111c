// Quickstart: simulate the crystal router miniapp on a small dragonfly
// machine under two contrasting configurations — contiguous placement with
// minimal routing (localized communication) versus random-node placement
// with adaptive routing (balanced traffic) — and compare the paper's four
// metrics.
package main

import (
	"fmt"
	"log"

	"dragonfly"
)

func main() {
	// The crystal router at the experiments' quick size: 64 ranks, 24 KB
	// multistage exchanges.
	tr, _, err := dragonfly.BuildApp("CR", dragonfly.AppQuick)
	if err != nil {
		log.Fatal(err)
	}

	cells := []dragonfly.Cell{
		{Placement: dragonfly.Contiguous, Routing: dragonfly.Minimal},
		{Placement: dragonfly.RandomNode, Routing: dragonfly.Adaptive},
	}
	fmt.Println("crystal router (64 ranks) on the mini dragonfly machine")
	fmt.Println()
	for _, cell := range cells {
		res, err := dragonfly.Run(dragonfly.MiniConfig(tr, cell, 42))
		if err != nil {
			log.Fatal(err)
		}
		var hops, satMs float64
		for _, h := range res.AvgHops {
			hops += h
		}
		hops /= float64(len(res.AvgHops))
		for _, s := range res.LocalSaturation(false) {
			satMs += s
		}
		fmt.Printf("%-9s  max comm time %-10v  mean hops %.2f  total local saturation %.4g ms\n",
			cell.Name(), res.MaxCommTime(), hops, satMs)
	}
	fmt.Println()
	fmt.Println("localizing (cont-min) shortens paths; balancing (rand-adp) spreads load —")
	fmt.Println("which one wins depends on the application (see examples/placement_study).")
}
