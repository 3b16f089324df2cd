//go:build race

package topology

// raceEnabled reports whether the race detector instruments this build:
// its instrumentation moves values to the heap, so allocation counts
// are asserted only without it.
const raceEnabled = true
