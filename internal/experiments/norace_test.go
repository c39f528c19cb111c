//go:build !race

package experiments

// raceEnabled reports a -race build, whose instrumentation moves
// allocation counts.
const raceEnabled = false
