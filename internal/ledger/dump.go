package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// State equivalence. StateHash reduces the ledger's full claim state —
// every record's newest version, in identifier order — to one SHA-256.
// The walk is canonical (sorted by ID bytes, canonical binary payload
// encoding), so two ledgers built from the same records hash alike
// regardless of engine, shard count, flush timing, or compaction
// history. The crash-injection suite and the storage bench's
// equivalence gate are both built on this.

// walkState visits the newest version of every record in ascending ID
// order: a frozen memtable copy merged with the live segment list (an
// in-memory ledger has no segments and every record resident).
func (l *Ledger) walkState(fn func(*Record) error) error {
	var mem []*Record
	var segs []*segReader
	if e := l.store; e != nil {
		// Exclude flush/compaction while capturing the (memtable, segment
		// list) pair; the merge itself runs on immutable inputs. Retired
		// segments stay mapped until Close, so a compaction racing the
		// merge cannot invalidate the captured list.
		e.mu.Lock()
		mem = l.copyMemtable()
		segs = *e.segs.Load()
		e.mu.Unlock()
	} else {
		mem = l.copyMemtable()
	}
	sort.Slice(mem, func(a, b int) bool { return idLess(mem[a].ID, mem[b].ID) })
	return mergeSegments(mem, segs, fn)
}

// copyMemtable returns value copies of every resident record, taken
// with all mutation frozen.
func (l *Ledger) copyMemtable() []*Record {
	var mem []*Record
	unlock := l.lockAllShards()
	defer unlock()
	for i := range l.shards {
		for _, rec := range l.shards[i].records {
			cp := *rec
			mem = append(mem, &cp)
		}
	}
	return mem
}

// StateHash returns the canonical digest of the full claim state.
func (l *Ledger) StateHash() ([32]byte, error) {
	h := sha256.New()
	var n [4]byte
	err := l.walkState(func(rec *Record) error {
		payload, err := appendClaimPayload(nil, rec)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(n[:], uint32(len(payload)))
		h.Write(n[:])
		h.Write(payload)
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
// for replication and for the storage bench, which must feed byte-
// identical records to the ledgers it compares. Identifiers must be
// unique and routed to this ledger; callers must not operate on a
// restored record until the call returns, and on error the ledger
// should be discarded (memory and log may disagree).
func (l *Ledger) RestoreRecords(recs []Record) error {
	n := uint64(len(recs))
	if n == 0 {
		return nil
	}
	// Group per shard so each stripe is locked once, stage every frame,
	// then pay one group commit for the whole batch.
	groups := make(map[*shard][]int)
	for i := range recs {
		sh := l.shardFor(recs[i].ID)
		groups[sh] = append(groups[sh], i)
	}
	st := l.store
	var frames []byte
	var err error
	for sh, idxs := range groups {
		sh.mu.Lock()
		for _, i := range idxs {
			cp := recs[i]
			if st != nil {
				frames, err = appendClaimFrame(frames, &cp)
				if err != nil {
					sh.mu.Unlock()
					return err
				}
			}
			sh.records[cp.ID] = &cp
			if cp.State == StateRevoked || cp.State == StatePermanentlyRevoked {
				sh.revoked[cp.ID] = true
			} else {
				// Restoring a newer active version must clear any stale
				// revoked-index entry, or future filter snapshots keep
				// flagging a claim that is no longer revoked.
				delete(sh.revoked, cp.ID)
			}
		}
		sh.mu.Unlock()
	}
	if st != nil {
		if err := st.wal.append(frames, len(recs)); err != nil {
			return err
		}
		st.claimCount.Add(n)
		if st.memRecs.Add(int64(n)) >= st.flushLimit {
			st.maybeFlush()
		}
	}
	l.metrics.claims.Add(n)
	return nil
}
