package ledger

import (
	"math"
	"slices"
	"time"

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

// An epoch costs what changed. setRevoked logs every flip of revoked
// membership; BuildSnapshot drains those logs under buildMu and keeps,
// beside the published filter, a counting shadow of it (Fan et al.,
// "Summary cache", 2000): a 4-bit saturating counter per filter bit,
// the number of revoked keys that set it. A revoke raises its key's k
// counters and an unrevoke lowers them; only a counter that crosses
// zero flips its bit, so the next epoch is the previous one with those
// bits flipped (bloom.Window.Advance). The shadow lives here only: the
// published filter stays a plain Bloom filter, byte-identical to a
// rebuild from the revoked set.
//
// The full rebuild stays the fallback, and is what the incremental
// path must equal: for the first epoch, a resize, a shard whose change
// log overflowed (a bulk RestoreRecords or WAL replay logs past the
// cap), and a counter that would saturate (a shadow that saturated in
// a rebuild keeps later epochs on the rebuild until one fits again).

const (
	// changeLogMax is the break-even, in logged changes across all
	// shards, past which an epoch is rebuilt rather than patched. Each
	// shard logs at most its share, so the logs hold at most 64 KiB.
	changeLogMax = 4096
	// counterMax is where a 4-bit shadow counter saturates.
	counterMax = 1<<4 - 1
)

// filterBuild is the builder's state across epochs, guarded by
// buildMu: the counting shadow of epoch shadowed and reused buffers.
type filterBuild struct {
	counts    []byte // two 4-bit counters per byte, one per filter bit
	shadowed  uint64 // the epoch counts describe; 0: none usable
	saturated bool   // a counter of the last rebuild saturated

	changes []filterChange
	probes  []uint64
	flips   []uint64
}

func (b *filterBuild) count(pos uint64) byte { return b.counts[pos/2] >> (4 * (pos % 2)) & 0xf }

func (b *filterBuild) setCount(pos uint64, v byte) {
	sh := 4 * (pos % 2)
	b.counts[pos/2] = b.counts[pos/2]&^(0xf<<sh) | v<<sh
}

// BuildSnapshot publishes the revocation filter of the current revoked
// set as the next epoch. Sizing targets cfg.FilterFPR at the current
// revoked population (minimum 1024 keys so early epochs stay
// delta-compatible as the population grows within a factor of the
// floor).
//
// The change logs are drained, or the revoked set collected, shard by
// shard in fixed index order and under buildMu, so a later epoch never
// misses a revocation an earlier one published. Bloom insertion is an
// order-insensitive bit-OR, so the published filter is byte-identical
// to a single-map build over the same population at any shard count.
func (l *Ledger) BuildSnapshot() (seq uint64, err error) {
	l.buildMu.Lock()
	defer l.buildMu.Unlock()
	return l.publish()
}

// epochGap is the least age, on the ledger's clock, at which the
// newest epoch counts as stale (PublishIfStale), so a served sync
// publishes at most one epoch per gap however many holders pull. It is
// proofQuantum: a proof and an epoch lag the ledger by the same second.
const epochGap = proofQuantum

// PublishIfStale publishes the next epoch, as BuildSnapshot does, when
// the newest one is stale: the ledger has published an epoch, its
// revoked set has changed since (a shard's change log is non-empty or
// lost), and that epoch is at least epochGap old. The rule is checked
// again under buildMu, so pulls racing on one stale epoch publish one
// epoch between them. The served filter sync calls it before it
// answers; the first epoch is always an explicit BuildSnapshot.
func (l *Ledger) PublishIfStale() error {
	if !l.epochDue() {
		return nil
	}
	l.buildMu.Lock()
	defer l.buildMu.Unlock()
	if !l.epochDue() || !l.revokedChanged() {
		return nil
	}
	_, err := l.publish()
	return err
}

// epochDue reports whether an epoch is published and at least epochGap
// old.
func (l *Ledger) epochDue() bool {
	return l.filters.Filter() != nil && l.clock().Sub(time.Unix(0, l.epochAt.Load())) >= epochGap
}

// revokedChanged reports whether any shard logged a change of revoked
// membership, or lost its log, since the newest epoch. The caller holds
// buildMu: the builder empties the logs under a shard read lock.
func (l *Ledger) revokedChanged() bool {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		changed := len(sh.changes) > 0 || sh.changesLost
		sh.mu.RUnlock()
		if changed {
			return true
		}
	}
	return false
}

// publish installs the next epoch, advanced by the shadow when it can
// be and rebuilt otherwise, and stamps its time. The caller holds
// buildMu.
func (l *Ledger) publish() (seq uint64, err error) {
	defer func() {
		if err == nil {
			l.epochAt.Store(l.clock().UnixNano())
		}
	}()
	prevSeq, prev, ok := l.filters.Latest()
	b := &l.build
	if ok && prevSeq == b.shadowed && !b.saturated {
		b.shadowed = 0 // until the advance below lands
		flips, n, patched := l.drainChanges(prev)
		if patched && prev.M() >= l.filterBits(n) {
			if err := l.filters.Advance(prevSeq+1, flips, n); err != nil {
				return 0, err
			}
			b.shadowed = prevSeq + 1
			return prevSeq + 1, nil
		}
	}
	return l.rebuildFilter(prevSeq, prev)
}

// filterBits is the filter size the target FPR needs at a revoked
// population of n.
func (l *Ledger) filterBits(n uint64) uint64 {
	n = max(n, 1024)
	return uint64(math.Ceil(-float64(n) * math.Log(l.cfg.FilterFPR) / (math.Ln2 * math.Ln2)))
}

// drainChanges empties every shard's change log into the shadow of
// prev and returns the bits whose counters crossed zero (ascending) and
// the revoked population. patched is false when the epoch must be
// rebuilt instead: a log overflowed, or a counter would saturate (the
// shadow is then half-updated and the rebuild recomputes it).
func (l *Ledger) drainChanges(prev *bloom.Filter) (flips []uint64, n uint64, patched bool) {
	b := &l.build
	b.changes = b.changes[:0]
	lost := false
	for i := range l.shards {
		sh := &l.shards[i]
		// A read lock excludes every setRevoked; only this builder,
		// under buildMu, touches the log under a read lock.
		sh.mu.RLock()
		b.changes = append(b.changes, sh.changes...)
		sh.changes = sh.changes[:0]
		lost = lost || sh.changesLost
		n += uint64(len(sh.revoked))
		sh.mu.RUnlock()
	}
	if lost {
		return nil, 0, false
	}
	// A counter that leaves or reaches zero logs its bit; a bit logged
	// twice (set and cleared again within the epoch) did not flip.
	b.flips = b.flips[:0]
	for _, c := range b.changes {
		b.probes = prev.Probes(c.key, b.probes[:0])
		for _, pos := range b.probes {
			v, crossing := b.count(pos), byte(0)
			switch {
			case c.add && v == counterMax, !c.add && v == 0:
				return nil, 0, false
			case c.add:
				b.setCount(pos, v+1)
			default:
				b.setCount(pos, v-1)
				crossing = 1
			}
			if v == crossing {
				b.flips = append(b.flips, pos)
			}
		}
	}
	slices.Sort(b.flips)
	out := b.flips[:0]
	for i := 0; i < len(b.flips); {
		j := i + 1
		for j < len(b.flips) && b.flips[j] == b.flips[i] {
			j++
		}
		if (j-i)%2 == 1 {
			out = append(out, b.flips[i])
		}
		i = j
	}
	return out, n, true
}

// rebuildFilter is the full build: it collects the revoked set,
// clearing every change log as it goes, sizes and fills a fresh filter
// and recomputes the shadow.
func (l *Ledger) rebuildFilter(prevSeq uint64, prev *bloom.Filter) (uint64, error) {
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
		sh.changes, sh.changesLost = sh.changes[:0], false
		sh.mu.RUnlock()
	}

	// Sizing with hysteresis: deltas require identical filter
	// parameters across epochs, so the previous size is reused as long
	// as the current revoked population still fits it at the target
	// FPR. Only when the population outgrows the held size does the
	// ledger resize — provisioning 50% headroom so the next resize is
	// far away. A resize forces proxies through one full re-download
	// (they detect it as a delta parameter mismatch).
	n := max(uint64(len(keys)), 1024)
	var f *bloom.Filter
	var err error
	if prev != nil && prev.M() >= l.filterBits(n) {
		f, err = bloom.New(prev.M(), prev.K())
	} else {
		f, err = bloom.NewWithEstimate(n*3/2, l.cfg.FilterFPR)
	}
	if err != nil {
		return 0, err
	}
	b := &l.build
	if size := int(f.M() / 2); len(b.counts) != size {
		b.counts = make([]byte, size)
	} else {
		clear(b.counts)
	}
	b.saturated = false
	for _, k := range keys {
		f.Add(k)
		b.probes = f.Probes(k, b.probes[:0])
		for _, pos := range b.probes {
			if v := b.count(pos); v < counterMax {
				b.setCount(pos, v+1)
			} else {
				b.saturated = true
			}
		}
	}
	seq := prevSeq + 1
	l.filters.Install(seq, f)
	b.shadowed = seq
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
