package ledger

import (
	"bytes"
	"crypto/ed25519"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"irs/internal/ids"
)

// Owner operations on sealed claims. The memtable keeps an overlay — the
// new state and sequence number — where it used to keep the record
// decoded back out of its segment; refOp below is that old path, kept as
// the oracle: what a ledger flushes, hashes, logs and answers after
// overlays must be what the same ledger did after loading the records.

// refOp applies an owner operation (op 0: a permanent revocation) the
// way the ledger did before overlays: it decodes the sealed record into
// the memtable, changes it there, and logs the operation.
func refOp(t testing.TB, l *Ledger, id ids.PhotoID, op Op) {
	t.Helper()
	sh := l.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.records[id]
	if !ok {
		srec, found, err := l.store.lookup(id)
		if err != nil || !found {
			t.Fatalf("refOp: %s not sealed (%v)", id, err)
		}
		sh.records[id] = srec
		rec = srec
	}
	var err error
	switch op {
	case 0:
		rec.State = StatePermanentlyRevoked
		err = l.store.logPermanent(id)
	case OpRevoke, OpUnrevoke:
		rec.State, rec.OpSeq = StateRevoked, rec.OpSeq+1
		if op == OpUnrevoke {
			rec.State = StateActive
		}
		err = l.store.logOp(id, op, rec.OpSeq)
	}
	if err != nil {
		t.Fatal(err)
	}
	sh.setRevoked(id, rec.State)
}

// overlayRig is a ledger whose claims, all under one owner's key, are
// sealed in a segment.
type overlayRig struct {
	o   *owner
	dir string
	l   *Ledger
	seq map[ids.PhotoID]uint64
}

// newOverlayRig restores recs re-keyed to o and flushes them.
func newOverlayRig(t *testing.T, o *owner, recs []Record) *overlayRig {
	t.Helper()
	r := &overlayRig{o: o, dir: t.TempDir(), seq: map[ids.PhotoID]uint64{}}
	for i := range recs {
		recs[i].PubKey = append(ed25519.PublicKey(nil), r.o.pub...)
		r.seq[recs[i].ID] = recs[i].OpSeq
	}
	var err error
	if r.l, err = New(Config{ID: 9, Dir: r.dir, Shards: 8, MemtableRecords: 1 << 20, CompactAfter: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.l.Close() })
	if err := r.l.RestoreRecords(recs); err != nil {
		t.Fatal(err)
	}
	if err := r.l.Flush(); err != nil {
		t.Fatal(err)
	}
	return r
}

// apply signs and applies op on id (op 0: a permanent revocation).
func (r *overlayRig) apply(t testing.TB, id ids.PhotoID, op Op) {
	t.Helper()
	if op == 0 {
		if err := r.l.PermanentRevoke(id); err != nil {
			t.Fatal(err)
		}
		return
	}
	r.seq[id]++
	if err := r.l.Apply(id, op, r.o.signOp(id, op, r.seq[id])); err != nil {
		t.Fatalf("%v on %s at seq %d: %v", op, id, r.seq[id], err)
	}
}

// liveHeap returns the bytes of heap still reachable after a collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC() // the second drops what pools kept through the first
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// memtable counts the records and overlays l holds.
func memtable(l *Ledger) (records, overlays int) {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		records += len(sh.records)
		overlays += len(sh.overlays)
		sh.mu.RUnlock()
	}
	return records, overlays
}

// sameAnswers demands that Status and Record answer alike on two
// ledgers for every id.
func sameAnswers(t *testing.T, got, want *Ledger, recs []Record, when string) {
	t.Helper()
	for i := range recs {
		id := recs[i].ID
		gp, err := got.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := want.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := got.Record(id)
		if err != nil {
			t.Fatal(err)
		}
		wr, err := want.Record(id)
		if err != nil {
			t.Fatal(err)
		}
		gf, _ := appendClaimFrame(nil, &gr)
		wf, _ := appendClaimFrame(nil, &wr)
		if gp.State != wp.State || gr.State != gp.State || !bytes.Equal(gf, wf) {
			t.Fatalf("%s: %s: status %v, record %v seq %d; want %v, %v seq %d", when, id, gp.State, gr.State, gr.OpSeq, wp.State, wr.State, wr.OpSeq)
		}
	}
}

// liveWALBytes reads the one WAL file an open ledger appends to.
func liveWALBytes(t *testing.T, dir string) []byte {
	t.Helper()
	seqs, err := listWALFiles(dir)
	if err != nil || len(seqs) != 1 {
		t.Fatalf("wal files %v (%v), want one", seqs, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walFileName(seqs[0])))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOverlayKeepsSealedClaimsOffTheHeap: owner operations on sealed
// claims leave only overlays in the memtable — at most 128 bytes of live
// heap and two allocations per operation, where decoding the record cost
// about 375 bytes and seven — and the next flush writes, the WAL holds,
// StateHash digests and Status and Record answer exactly what the
// load-then-flush oracle gives, live, raced between a flush's freeze and
// its eviction, and reopened after a crash with the overlays only in the
// WAL.
func TestOverlayKeepsSealedClaimsOffTheHeap(t *testing.T) {
	t.Run("heap and allocations", func(t *testing.T) {
		if raceEnabled {
			t.Skip("heap and allocation counts are asserted without the race detector")
		}
		// Every claim is revoked and every operation a revoke, so the
		// resident revoked set and its change log do not move: what grows
		// is the memtable's alone.
		recs := makeRecords(t, 9, 6000, 11)
		for i := range recs {
			recs[i].State = StateRevoked
		}
		r := newOverlayRig(t, newOwner(t), recs)
		const touched = 4096
		sigs := make([][]byte, touched)
		for i := range sigs {
			sigs[i] = r.o.signOp(recs[i].ID, OpRevoke, recs[i].OpSeq+1)
		}
		before := liveHeap()
		allocs := mallocs(func() {
			for i, sig := range sigs {
				if err := r.l.Apply(recs[i].ID, OpRevoke, sig); err != nil {
					t.Fatal(err)
				}
			}
		})
		grown := float64(int64(liveHeap())-int64(before)) / touched
		runtime.KeepAlive(recs) // and sigs: both were live before, so must be after
		runtime.KeepAlive(sigs)
		t.Logf("per operation on a sealed claim: %.1f B of live heap, %.2f allocations", grown, float64(allocs)/touched)
		if grown > 128 {
			t.Errorf("live heap grew %.1f B per touched id, budget 128", grown)
		}
		if per := float64(allocs) / touched; per > 2 {
			t.Errorf("Apply on a sealed claim: %.2f allocations, budget 2", per)
		}
		if records, overlays := memtable(r.l); records != 0 || overlays != touched {
			t.Errorf("memtable holds %d records and %d overlays, want 0 and %d", records, overlays, touched)
		}
	})

	t.Run("flush matches load-then-flush", func(t *testing.T) {
		recs := mixedRecords(t, 900, 12)
		for i := range recs {
			if i%7 == 6 {
				recs[i].OpSeq = 127 // the next operation lengthens the varint
			}
		}
		o := newOwner(t)
		r := newOverlayRig(t, o, recs)
		ref := newOverlayRig(t, o, append([]Record(nil), recs...))
		if !bytes.Equal(liveSegment(t, r.l), liveSegment(t, ref.l)) {
			t.Fatal("twin ledgers sealed different segments")
		}
		for i := range recs {
			if i%3 != 0 || recs[i].State == StatePermanentlyRevoked {
				continue
			}
			id := recs[i].ID
			ops := []Op{OpRevoke, OpUnrevoke, 0}[:1+i%4%3]
			if i%5 == 0 {
				ops = []Op{0} // a permanent revocation alone keeps the sealed seq
			}
			for _, op := range ops {
				r.apply(t, id, op)
				refOp(t, ref.l, id, op)
			}
		}
		if records, overlays := memtable(r.l); records != 0 || overlays == 0 {
			t.Fatalf("memtable holds %d records and %d overlays; want overlays alone", records, overlays)
		}
		if !bytes.Equal(liveWALBytes(t, r.dir), liveWALBytes(t, ref.dir)) {
			t.Fatal("WAL bytes differ from the oracle's")
		}
		hash := refStateHash(t, ref.l)
		if stateHash(t, r.l) != hash || stateHash(t, ref.l) != hash {
			t.Fatal("StateHash over overlays differs from the load-then-flush oracle")
		}
		sameAnswers(t, r.l, ref.l, recs, "before the flush")
		if err := r.l.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := ref.l.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(liveSegment(t, r.l), liveSegment(t, ref.l)) {
			t.Fatal("flushed segment differs from the load-then-flush oracle's")
		}
		if records, overlays := memtable(r.l); records != 0 || overlays != 0 {
			t.Fatalf("memtable holds %d records and %d overlays after the flush", records, overlays)
		}
		if stateHash(t, r.l) != hash {
			t.Fatal("StateHash changed across the flush")
		}
		sameAnswers(t, r.l, ref.l, recs, "after the flush")
	})

	t.Run("between freeze and eviction", func(t *testing.T) {
		recs := makeRecords(t, 9, 40, 13)
		for i := range recs {
			recs[i].State = StateActive
		}
		r := newOverlayRig(t, newOwner(t), recs)
		again, fresh, permanent, settled := recs[0].ID, recs[1].ID, recs[2].ID, recs[3].ID
		r.apply(t, again, OpRevoke)
		r.apply(t, settled, OpRevoke)
		r.l.store.beforeEvict = func() {
			r.apply(t, again, OpUnrevoke) // the cut holds its previous overlay
			r.apply(t, fresh, OpRevoke)   // no version in the cut
			r.apply(t, permanent, 0)
		}
		if err := r.l.Flush(); err != nil {
			t.Fatal(err)
		}
		r.l.store.beforeEvict = nil
		want := []struct {
			id    ids.PhotoID
			state State
			seq   uint64
		}{
			{again, StateActive, r.seq[again]}, {fresh, StateRevoked, r.seq[fresh]},
			{permanent, StatePermanentlyRevoked, r.seq[permanent]}, {settled, StateRevoked, r.seq[settled]},
			{recs[4].ID, StateActive, r.seq[recs[4].ID]},
		}
		check := func(l *Ledger, when string) {
			t.Helper()
			for _, w := range want {
				p, err := l.Status(w.id)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := l.Record(w.id)
				if err != nil {
					t.Fatal(err)
				}
				if p.State != w.state || rec.State != w.state || rec.OpSeq != w.seq || !bytes.Equal(rec.PubKey, r.o.pub) {
					t.Fatalf("%s: %s: status %v, record %v seq %d; want %v seq %d", when, w.id, p.State, rec.State, rec.OpSeq, w.state, w.seq)
				}
			}
			if _, revoked := l.Count(); revoked != 3 {
				t.Fatalf("%s: revoked = %d, want 3", when, revoked)
			}
		}
		check(r.l, "after the flush")
		if records, overlays := memtable(r.l); records != 0 || overlays != 3 {
			t.Fatalf("memtable holds %d records and %d overlays after the flush, want the 3 changed since the freeze", records, overlays)
		}
		if st, err := r.l.store.lookupState(again); err != nil || st != StateRevoked {
			t.Fatalf("segment holds %s as %v (%v); the cut held its first overlay", again, st, err)
		}
		if err := r.l.Flush(); err != nil {
			t.Fatal(err)
		}
		check(r.l, "after the second flush")
		if records, overlays := memtable(r.l); records+overlays != 0 {
			t.Fatalf("memtable holds %d records and %d overlays after the second flush", records, overlays)
		}
		if err := r.l.Close(); err != nil {
			t.Fatal(err)
		}
		rl, err := New(Config{ID: 9, Dir: r.dir})
		if err != nil {
			t.Fatal(err)
		}
		defer rl.Close()
		check(rl, "reopened")
	})

	t.Run("reopen after a crash", func(t *testing.T) {
		recs := mixedRecords(t, 300, 14)
		r := newOverlayRig(t, newOwner(t), recs)
		n := 0
		for i := range recs {
			if i%4 == 1 && recs[i].State != StatePermanentlyRevoked {
				r.apply(t, recs[i].ID, []Op{OpRevoke, OpUnrevoke, 0}[i%3])
				n++
			}
		}
		hash := stateHash(t, r.l)
		// The ledger is not closed: its directory is copied as a crash
		// leaves it, the overlays only in the WAL.
		crashed, err := New(Config{ID: 9, Dir: copyLedgerDir(t, r.dir), Shards: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer crashed.Close()
		if records, overlays := memtable(crashed); records != 0 || overlays != n {
			t.Fatalf("replay left %d records and %d overlays, want 0 and %d", records, overlays, n)
		}
		if got := stateHash(t, crashed); got != hash {
			t.Fatal("StateHash differs after replay")
		}
		if st := crashed.StorageStats(); st.MemtableRecords != int64(n) || st.Claims != uint64(len(recs)) {
			t.Fatalf("replayed memtable %d, claims %d; want %d, %d", st.MemtableRecords, st.Claims, n, len(recs))
		}
		sameAnswers(t, crashed, r.l, recs, "replayed")
		if err := crashed.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := r.l.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(liveSegment(t, crashed), liveSegment(t, r.l)) {
			t.Fatal("the replayed ledger flushes a different segment")
		}
	})
}
