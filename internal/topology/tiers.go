package topology

import (
	"irs/internal/bloom"
	"irs/internal/obs"
)

// A filter tier is a bare bloom.Window (or a proxy.Validator) and owns
// nothing here. The names below are only what bench/stack.go and
// bench/trace.go still build their regional and edge tiers from; each
// forwards to the window, and the file goes when bench/ next changes.

// Syncer is bloom.SyncFunc as a method.
//
// Deprecated: pass a bloom.SyncFunc.
type Syncer interface {
	FilterSync(from uint64, baseHash []byte) (payload []byte, latest uint64, err error)
}

// The tier names NewFilterCache accepts.
//
// Deprecated: a window has no tier name.
const (
	TierRegional = "regional"
	TierEdge     = "edge"
)

// FilterCache is a tier's window under the Syncer method set.
//
// Deprecated: use *bloom.Window.
type FilterCache struct{ *bloom.Window }

// NewFilterCache returns an empty window that keeps history epochs
// (<=0 means bloom.RelayHistory). The tier name and the registry
// labelled counters that are gone; both are unused.
//
// Deprecated: use bloom.NewWindow(bloom.RelayHistory).
func NewFilterCache(_ string, history int, _ *obs.Registry) *FilterCache {
	if history <= 0 {
		history = bloom.RelayHistory
	}
	return &FilterCache{bloom.NewWindow(history)}
}

// FilterSync is bloom.Window.Sync.
func (fc *FilterCache) FilterSync(from uint64, baseHash []byte) ([]byte, uint64, error) {
	return fc.Sync(from, baseHash)
}

// Pull is bloom.Window.Pull from src.
func (fc *FilterCache) Pull(src Syncer) (changed bool, bytes int, err error) {
	return fc.Window.Pull(src.FilterSync)
}
