//go:build race

package aggregator

// raceEnabled reports that the race detector is active: sync.Pool drops
// items at random under it, so the media kernels' pooled planes are
// reallocated and allocation ceilings mean nothing.
const raceEnabled = true
