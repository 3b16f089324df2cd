//go:build race

package proxy

// raceEnabled reports that the race detector is active: its
// instrumentation moves values to the heap, so the allocation budgets
// are asserted only without it.
const raceEnabled = true
