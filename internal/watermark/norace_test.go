//go:build !race

package watermark

const raceEnabled = false
