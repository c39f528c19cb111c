// Placement study: the core of the paper's Figure 3 — replay all three
// applications under every placement x routing configuration and rank the
// configurations by maximum communication time, showing that different
// communication patterns prefer different ends of the localize-vs-balance
// trade-off.
package main

import (
	"fmt"
	"log"
	"sort"

	"dragonfly"
)

func main() {
	for _, app := range []string{"CR", "FB", "AMG"} {
		// The experiments' quick size fits the 64-node mini machine.
		tr, _, err := dragonfly.BuildApp(app, dragonfly.AppQuick)
		if err != nil {
			log.Fatal(err)
		}
		type row struct {
			name string
			max  dragonfly.Time
		}
		var rows []row
		for _, cell := range dragonfly.AllCells() {
			res, err := dragonfly.Run(dragonfly.MiniConfig(tr, cell, 1))
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, row{cell.Name(), res.MaxCommTime()})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].max < rows[j].max })
		fmt.Printf("%s — configurations ranked by max communication time:\n", app)
		for i, r := range rows {
			marker := "  "
			if i == 0 {
				marker = "* "
			}
			fmt.Printf("  %s%-9s %v\n", marker, r.name, r.max)
		}
		fmt.Println()
	}
	fmt.Println("(* = best; the paper finds CR/FB prefer balanced-traffic placements")
	fmt.Println(" while the lighter, bursty AMG prefers localized placement.)")
}
