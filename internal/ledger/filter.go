package ledger

import (
	"errors"
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

	l.snapMu.Lock()
	defer l.snapMu.Unlock()
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
	if len(l.snapOrder) > 0 {
		prev := l.snapshots[l.snapOrder[len(l.snapOrder)-1]]
		if prev.M() >= needM {
			f, err = bloom.New(prev.M(), prev.K())
			if err != nil {
				return 0, err
			}
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
	l.snapSeq++
	l.snapshots[l.snapSeq] = f
	l.snapHashes[l.snapSeq] = f.Hash()
	l.snapOrder = append(l.snapOrder, l.snapSeq)
	for len(l.snapOrder) > l.maxHistory {
		delete(l.snapshots, l.snapOrder[0])
		delete(l.snapHashes, l.snapOrder[0])
		l.snapOrder = l.snapOrder[1:]
	}
	return l.snapSeq, nil
}

// ErrNoSnapshot is returned before the first BuildSnapshot.
var ErrNoSnapshot = errors.New("ledger: no filter snapshot built yet")

// FilterSnapshot returns the latest snapshot epoch and a copy of its
// filter.
func (l *Ledger) FilterSnapshot() (uint64, *bloom.Filter, error) {
	l.snapMu.RLock()
	defer l.snapMu.RUnlock()
	if len(l.snapOrder) == 0 {
		return 0, nil, ErrNoSnapshot
	}
	seq := l.snapOrder[len(l.snapOrder)-1]
	return seq, l.snapshots[seq].Clone(), nil
}

// FilterSync is the sync protocol's server side: the caller
// states the epoch it holds and the hash of the filter it actually has,
// and always gets back whatever brings it to the latest epoch.
//
//   - Caller already at the latest epoch with the matching hash: empty
//     payload (nothing to transfer).
//   - Known epoch whose retained snapshot hashes to baseHash: the
//     cheaper of a base-validated delta and a full snapshot
//     (bloom.Update's size gate).
//   - Anything else — epoch expired from history, epoch ahead of us (a
//     restarted origin renumbering epochs), or a hash that doesn't
//     match what we published under that epoch (the caller's copy is
//     not what it thinks it is): a full snapshot. Mismatch is a normal
//     sync outcome here, never an error.
//
// The only error is ErrNoSnapshot before the first build.
func (l *Ledger) FilterSync(from uint64, baseHash []byte) (payload []byte, latest uint64, err error) {
	l.snapMu.RLock()
	defer l.snapMu.RUnlock()
	if len(l.snapOrder) == 0 {
		return nil, 0, ErrNoSnapshot
	}
	latest = l.snapOrder[len(l.snapOrder)-1]
	base := l.snapshots[from]
	if base != nil {
		want := l.snapHashes[from]
		if len(baseHash) != 32 || string(baseHash) != string(want[:]) {
			base = nil // right epoch number, wrong contents — resync fully
		}
	}
	if base != nil && from == latest {
		return nil, latest, nil
	}
	p, err := bloom.Update(base, l.snapshots[latest])
	return p, latest, err
}
