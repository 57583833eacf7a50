//go:build race

package bench

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
