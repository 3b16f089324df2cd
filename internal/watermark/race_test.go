//go:build race

package watermark

// raceEnabled reports that the race detector is active; sync.Pool
// intentionally drops items under -race, so allocation-count tests are
// meaningless there.
const raceEnabled = true
