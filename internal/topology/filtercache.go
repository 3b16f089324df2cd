package topology

import (
	"irs/internal/bloom"
	"irs/internal/obs"
)

// Syncer is one round of the versioned filter sync protocol: present
// the held epoch and filter hash, receive an ApplyUpdate payload (or
// nothing when current). Satisfied by *ledger.Ledger, wire.Service
// implementations, and *FilterCache itself — which is what lets the
// tiers chain: edges sync from a regional FilterCache exactly the way
// the regional syncs from the origin ledger.
type Syncer interface {
	FilterSync(from uint64, baseHash []byte) (payload []byte, latest uint64, err error)
}

var _ Syncer = (*FilterCache)(nil)

// FilterCache is a tier's held window of filter epochs (bloom.Window)
// plus its irs_topology_* counters. The serve side (FilterSync) answers
// downstream tiers with the window's serve rule; the client side (Pull)
// advances the window from an upstream Syncer with bloom.Pull.
type FilterCache struct {
	w *bloom.Window
	m *filterMetrics
}

// DefaultFilterHistory retains enough epochs that a downstream lagging
// several sync intervals still gets deltas.
const DefaultFilterHistory = 8

// NewFilterCache builds an empty cache for a tier. history bounds the
// retained epochs (<=0 means DefaultFilterHistory); reg may be nil.
func NewFilterCache(tier Tier, history int, reg *obs.Registry) *FilterCache {
	if history <= 0 {
		history = DefaultFilterHistory
	}
	return &FilterCache{w: bloom.NewWindow(history), m: newFilterMetrics(reg, tier)}
}

// Install records a filter under an epoch number (bloom.Window.Install:
// held epochs at or past it are dropped first).
func (fc *FilterCache) Install(epoch uint64, f *bloom.Filter) { fc.w.Install(epoch, f) }

// Latest returns the newest held epoch and filter (shared, do not
// mutate), or ok=false before the first Install.
func (fc *FilterCache) Latest() (epoch uint64, f *bloom.Filter, ok bool) { return fc.w.Latest() }

// FilterSync implements Syncer with bloom.Window.Sync, counting what it
// served. ledger.ErrNoSnapshot before the first Install.
func (fc *FilterCache) FilterSync(from uint64, baseHash []byte) ([]byte, uint64, error) {
	payload, latest, err := fc.w.Sync(from, baseHash)
	switch {
	case err != nil:
		return nil, latest, err
	case len(payload) == 0:
		fc.m.syncUpToDate.Inc()
	case bloom.IsSnapshot(payload):
		fc.m.syncSnapshot.Inc()
	default:
		fc.m.syncDelta.Inc()
	}
	fc.m.syncBytes.Add(uint64(len(payload)))
	return payload, latest, nil
}

// Pull advances the cache one sync round against an upstream tier
// (bloom.Pull, snapshot fallback included). Returns whether a new epoch
// was installed and the payload bytes transferred.
func (fc *FilterCache) Pull(src Syncer) (changed bool, bytes int, err error) {
	held, f, _ := fc.w.Latest()
	next, latest, bytes, err := bloom.Pull(src.FilterSync, held, f)
	if err != nil {
		return false, bytes, err
	}
	if next == nil {
		fc.m.pullCurrent.Inc()
		return false, 0, nil
	}
	fc.w.Install(latest, next)
	fc.m.pullChanged.Inc()
	fc.m.pullBytes.Add(uint64(bytes))
	return true, bytes, nil
}
