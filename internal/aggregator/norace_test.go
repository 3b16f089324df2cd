//go:build !race

package aggregator

const raceEnabled = false
