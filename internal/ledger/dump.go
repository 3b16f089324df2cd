package ledger

import (
	"cmp"
	"crypto/sha256"
	"slices"

	"irs/internal/ids"
)

// State equivalence. StateHash reduces the ledger's full claim state —
// every record's newest version, in identifier order — to one SHA-256.
// The walk is canonical (sorted by ID bytes, canonical binary payload
// encoding), so two ledgers built from the same records hash alike
// regardless of engine, shard count, flush timing, or compaction
// history. The crash-injection suite and the storage bench's
// equivalence gate are both built on this.

// copyMemtable returns one slab holding a value copy of every resident
// record and overlay, grouped by shard in index order; an overlay's
// entry carries its ID, State and OpSeq alone (see isOverlay). The
// caller holds lockAllShards, so no mutation is in flight; the copies
// are the caller's, and mutators may touch the originals once it
// unlocks.
func (l *Ledger) copyMemtable() []Record {
	n := 0
	for i := range l.shards {
		n += l.shards[i].memtableLen()
	}
	cut := make([]Record, 0, n)
	for i := range l.shards {
		sh := &l.shards[i]
		for _, rec := range sh.records {
			cut = append(cut, *rec)
		}
		for id, ov := range sh.overlays {
			cut = append(cut, Record{ID: id, State: ov.state, OpSeq: ov.seq})
		}
	}
	return cut
}

// isOverlay reports whether a cut entry is an overlay, which has no
// timestamp token; every claim record has one.
func isOverlay(rec *Record) bool { return rec.Timestamp == nil }

// cutKey orders one record of a memtable cut: its identifier as two
// big-endian words, which compare as idLess does, and its index in the
// cut.
type cutKey struct {
	hi, lo uint64
	idx    int
}

// sortCut returns the cut's keys in ascending identifier order; the cut
// itself stays as it was copied.
func sortCut(cut []Record) []cutKey {
	keys := make([]cutKey, len(cut))
	for i := range cut {
		hi, lo := cut[i].ID.Uint64Pair()
		keys[i] = cutKey{hi, lo, i}
	}
	slices.SortFunc(keys, func(a, b cutKey) int {
		if c := cmp.Compare(a.hi, b.hi); c != 0 {
			return c
		}
		return cmp.Compare(a.lo, b.lo)
	})
	return keys
}

// StateHash returns the canonical digest of the full claim state: the
// newest version of every record in ascending ID order, a frozen copy of
// the memtable merged with the live segment list (an in-memory ledger
// has no segments and every record resident).
func (l *Ledger) StateHash() ([32]byte, error) {
	var segs []*segReader
	e := l.store
	if e != nil {
		// Exclude flush/compaction while capturing the (memtable, segment
		// list) pair; the merge itself runs on immutable inputs, in a list
		// pinned so that a compaction racing it cannot unmap them.
		e.mu.Lock()
		sl := e.pin()
		defer sl.unpin()
		segs = sl.segs
	}
	unlock := l.lockAllShards()
	cut := l.copyMemtable()
	unlock()
	if e != nil {
		e.mu.Unlock()
	}
	h := sha256.New()
	err := mergeSegments(cut, sortCut(cut), segs, segs, func(_ ids.PhotoID, _ bool, frame []byte) error {
		h.Write(frame[:4]) // payload length, as the frame header carries it
		h.Write(frame[frameHeaderSize:])
		return nil
	})
	var sum [32]byte
	if err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// RestoreRecords bulk-loads fully formed claim records, bypassing the
// Ed25519 verification the public Claim path performs — the ingest path
// for replication and for the benchmark's set-up. Identifiers must be
// routed to this ledger and unique within one call; one the ledger
// already holds is replaced by the restored (newer) version and is not
// counted as a claim again. A batch holding a record that is not
// evidence of its claim as stored (see checkClaim: a token over another
// digest than the content hash, a key or signature of the wrong size) is
// refused whole, before anything changes. The records are copied, in
// slabs of restoreSlab, so the caller may reuse recs at once; it must
// not operate on a restored record until the call returns, and on a
// later error the ledger should be discarded (memory and log may
// disagree).
func (l *Ledger) RestoreRecords(recs []Record) error {
	n := len(recs)
	if n == 0 {
		return nil
	}
	for i := range recs {
		if err := checkClaim(&recs[i]); err != nil {
			return err
		}
	}
	st := l.store
	var frames []byte
	if st != nil {
		size := 0
		for i := range recs {
			size += claimFrameSize(&recs[i])
		}
		frames = make([]byte, 0, size)
	}
	added := 0 // ids the ledger did not hold: the claims this call makes
	for rest := recs; len(rest) > 0; {
		slab := append([]Record(nil), rest[:min(len(rest), restoreSlab)]...)
		rest = rest[len(slab):]
		for i := range slab {
			cp := &slab[i]
			if st != nil {
				var err error
				if frames, err = appendClaimFrame(frames, cp); err != nil {
					return err
				}
				st.noteSerial(cp.Timestamp.Serial)
			}
			sh := l.shardFor(cp.ID)
			sh.mu.Lock()
			held, err := l.holds(sh, cp.ID)
			if err != nil {
				sh.mu.Unlock()
				return err
			}
			if !held {
				added++
				if st != nil {
					// Counted under the shard lock, so a memtable freeze
					// sees the count and the record together.
					st.claimCount.Add(1)
				}
			}
			sh.records[cp.ID] = cp
			delete(sh.overlays, cp.ID)
			// A newer active version clears a stale entry, or filter
			// snapshots keep flagging a claim that is no longer revoked.
			sh.setRevoked(cp.ID, cp.State)
			sh.mu.Unlock()
		}
	}
	if st != nil {
		// One group commit for the whole batch.
		if err := st.wal.append(frames, n); err != nil {
			return err
		}
		if st.memRecs.Add(int64(n)) >= st.flushLimit {
			st.maybeFlush()
		}
	}
	l.metrics.claims.Add(uint64(added))
	return nil
}

// restoreSlab is how many records RestoreRecords copies into one
// allocation. The memtable points into the slab, so one record that
// stays resident (changed between a flush's freeze and its eviction)
// keeps this many alive, not the caller's whole batch.
const restoreSlab = 1024

// holds reports whether the ledger has a version of id already: in sh,
// id's shard, which the caller has write-locked (or owns, in recovery),
// or sealed in a segment.
func (l *Ledger) holds(sh *shard, id ids.PhotoID) (bool, error) {
	if _, _, ok := sh.version(id); ok || l.store == nil {
		return ok, nil
	}
	st, err := l.store.lookupState(id)
	return st != StateUnknown, err
}
