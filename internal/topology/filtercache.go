package topology

import (
	"sync"

	"irs/internal/bloom"
	"irs/internal/ledger"
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

// FilterCache is a tier's held window of filter epochs. The serve side
// (FilterSync) answers downstream tiers with size-gated deltas
// between retained epochs or full snapshots; the client side (Pull)
// advances the cache from an upstream Syncer. A bounded history keeps
// delta service possible for downstreams one-to-few intervals behind
// without holding every epoch forever.
type FilterCache struct {
	mu      sync.RWMutex
	filters map[uint64]*bloom.Filter
	hashes  map[uint64][32]byte
	order   []uint64
	history int
	m       *filterMetrics
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
	return &FilterCache{
		filters: make(map[uint64]*bloom.Filter),
		hashes:  make(map[uint64][32]byte),
		history: history,
		m:       newFilterMetrics(reg, tier),
	}
}

// Install records a filter under an epoch number. Re-installing a held
// epoch replaces its filter in place — that is what lets the snapshot
// fallback repair a cache whose bits drifted from the upstream's at the
// same epoch number. Epochs must otherwise be installed in increasing
// order; the oldest retained epoch is evicted past the history bound.
func (fc *FilterCache) Install(epoch uint64, f *bloom.Filter) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if _, ok := fc.filters[epoch]; ok {
		fc.filters[epoch] = f
		fc.hashes[epoch] = f.Hash()
		return
	}
	fc.filters[epoch] = f
	fc.hashes[epoch] = f.Hash()
	fc.order = append(fc.order, epoch)
	for len(fc.order) > fc.history {
		delete(fc.filters, fc.order[0])
		delete(fc.hashes, fc.order[0])
		fc.order = fc.order[1:]
	}
}

// Latest returns the newest held epoch and filter (shared, do not
// mutate), or ok=false before the first Install.
func (fc *FilterCache) Latest() (epoch uint64, f *bloom.Filter, ok bool) {
	fc.mu.RLock()
	defer fc.mu.RUnlock()
	if len(fc.order) == 0 {
		return 0, nil, false
	}
	epoch = fc.order[len(fc.order)-1]
	return epoch, fc.filters[epoch], true
}

// LatestHash returns the newest held epoch and its filter hash.
func (fc *FilterCache) LatestHash() (epoch uint64, hash [32]byte, ok bool) {
	fc.mu.RLock()
	defer fc.mu.RUnlock()
	if len(fc.order) == 0 {
		return 0, hash, false
	}
	epoch = fc.order[len(fc.order)-1]
	return epoch, fc.hashes[epoch], true
}

// FilterSync implements Syncer — the serve side, with the same
// semantics as ledger.FilterSync: empty payload when the caller is
// current, otherwise the cheaper of a base-validated delta and a full
// snapshot, resolving any base mismatch with a snapshot rather than an
// error. ledger.ErrNoSnapshot before the first Install.
func (fc *FilterCache) FilterSync(from uint64, baseHash []byte) ([]byte, uint64, error) {
	fc.mu.RLock()
	defer fc.mu.RUnlock()
	if len(fc.order) == 0 {
		return nil, 0, ledger.ErrNoSnapshot
	}
	latest := fc.order[len(fc.order)-1]
	base := fc.filters[from]
	if base != nil {
		want := fc.hashes[from]
		if len(baseHash) != 32 || string(baseHash) != string(want[:]) {
			base = nil
		}
	}
	if base != nil && from == latest {
		fc.m.syncUpToDate.Inc()
		return nil, latest, nil
	}
	payload, err := bloom.Update(base, fc.filters[latest])
	if err != nil {
		return nil, latest, err
	}
	if isSnapshotPayload(payload) {
		fc.m.syncSnapshot.Inc()
	} else {
		fc.m.syncDelta.Inc()
	}
	fc.m.syncBytes.Add(uint64(len(payload)))
	return payload, latest, nil
}

// isSnapshotPayload reports whether an Update payload is a full
// snapshot frame (vs a delta).
func isSnapshotPayload(p []byte) bool {
	return len(p) >= 6 && string(p[:6]) == "IRSBF1"
}

// Pull advances the cache one sync round against an upstream tier.
// Returns whether a new epoch was installed and the payload bytes
// transferred. A payload the held base cannot absorb (upstream restart,
// local corruption) is retried as an explicit cold sync — the
// full-snapshot fallback — so Pull converges whenever the upstream
// serves at all.
func (fc *FilterCache) Pull(src Syncer) (changed bool, bytes int, err error) {
	held, f, _ := fc.Latest()
	var baseHash []byte
	if f != nil {
		h := f.Hash()
		baseHash = h[:]
	}
	payload, latest, err := src.FilterSync(held, baseHash)
	if err != nil {
		return false, 0, err
	}
	if len(payload) == 0 {
		fc.m.pullCurrent.Inc()
		return false, 0, nil
	}
	bytes = len(payload)
	next, aerr := bloom.ApplyUpdate(f, payload)
	if aerr != nil {
		// Defense in depth: ask for a standalone snapshot.
		payload, latest, err = src.FilterSync(0, nil)
		if err != nil {
			return false, bytes, err
		}
		bytes += len(payload)
		next, err = bloom.ApplyUpdate(nil, payload)
		if err != nil {
			return false, bytes, err
		}
	}
	fc.Install(latest, next)
	fc.m.pullChanged.Inc()
	fc.m.pullBytes.Add(uint64(bytes))
	return true, bytes, nil
}
