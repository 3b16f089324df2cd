package ledger

import (
	"math"

	"irs/internal/bloom"
	"irs/internal/ids"
)

// Filter snapshots (§4.4): the ledger periodically publishes a Bloom
// filter over its *currently revoked* claims so that proxies (and, in
// early deployment, browsers) can answer "definitely not revoked"
// locally. A miss is authoritative; a hit triggers a real status query.
//
// Note on the paper's wording: §4.4 says ledgers publish a filter "of
// their claimed photos", but the surrounding argument — "if the photo
// does not hit in the filter, it is definitely not revoked" and the
// 2%-false-hit ⇒ 50× load reduction arithmetic — only works if the
// filter covers the revoked subset (a filter of all claims would be hit
// by every labeled photo). We implement the reading the arithmetic
// requires and record the discrepancy here and in EXPERIMENTS.md.
//
// Snapshots are numbered; proxies holding epoch E fetch a compact
// delta E→latest instead of the full filter (hourly delta updates,
// §4.4) through FilterSync.

// FilterKey maps a photo identifier into the filter key space.
func FilterKey(id ids.PhotoID) uint64 {
	hi, lo := id.Uint64Pair()
	return bloom.Fold(hi, lo)
}

// BuildSnapshot rebuilds the revocation filter from current state and
// publishes it as the next epoch. Sizing targets cfg.FilterFPR at the
// current revoked population (minimum 1024 keys so early epochs stay
// delta-compatible as the population grows within a factor of the
// floor).
//
// The revoked set is collected shard by shard in fixed index order.
// Bloom insertion is an order-insensitive bit-OR, so the published
// filter is byte-identical to a single-map build over the same
// population at any shard count.
func (l *Ledger) BuildSnapshot() (seq uint64, err error) {
	// Sized once from a first pass over the shards; a revocation landing
	// between the passes only makes the append below grow the slice.
	revoked := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		revoked += len(sh.revoked)
		sh.mu.RUnlock()
	}
	keys := make([]uint64, 0, revoked)
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		for id := range sh.revoked {
			keys = append(keys, FilterKey(id))
		}
		sh.mu.RUnlock()
	}

	l.buildMu.Lock()
	defer l.buildMu.Unlock()
	// Sizing with hysteresis: deltas require identical filter
	// parameters across epochs, so the previous size is reused as long
	// as the current revoked population still fits it at the target
	// FPR. Only when the population outgrows the held size does the
	// ledger resize — provisioning 50% headroom so the next resize is
	// far away. A resize forces proxies through one full re-download
	// (they detect it as a delta parameter mismatch).
	n := uint64(len(keys))
	if n < 1024 {
		n = 1024
	}
	needM := uint64(math.Ceil(-float64(n) * math.Log(l.cfg.FilterFPR) / (math.Ln2 * math.Ln2)))
	var f *bloom.Filter
	prevSeq, prev, ok := l.filters.Latest()
	if ok && prev.M() >= needM {
		f, err = bloom.New(prev.M(), prev.K())
		if err != nil {
			return 0, err
		}
	}
	if f == nil {
		f, err = bloom.NewWithEstimate(n*3/2, l.cfg.FilterFPR)
		if err != nil {
			return 0, err
		}
	}
	for _, k := range keys {
		f.Add(k)
	}
	seq = prevSeq + 1
	l.filters.Install(seq, f)
	return seq, nil
}

// ErrNoSnapshot is returned before the first BuildSnapshot. It is
// bloom.ErrNoEpoch, the error every epoch window answers with while
// empty, so it reaches a tier's downstream unchanged.
var ErrNoSnapshot = bloom.ErrNoEpoch

// FilterSnapshot returns the latest snapshot epoch and a copy of its
// filter.
func (l *Ledger) FilterSnapshot() (uint64, *bloom.Filter, error) {
	seq, f, ok := l.filters.Latest()
	if !ok {
		return 0, nil, ErrNoSnapshot
	}
	return seq, f.Clone(), nil
}

// FilterSync is the sync protocol's serving half over the published
// epochs: bloom.Window.Sync, whose only error is ErrNoSnapshot before
// the first build.
func (l *Ledger) FilterSync(from uint64, baseHash []byte) (payload []byte, latest uint64, err error) {
	return l.filters.Sync(from, baseHash)
}
