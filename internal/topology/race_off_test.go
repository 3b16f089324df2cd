//go:build !race

package topology

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
