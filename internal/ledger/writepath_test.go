package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"irs/internal/ids"
)

// The bulk write path (restore → WAL → freeze → segment → merge) against
// the code it replaced, kept here as the oracle: refCopyMemtable and
// refAdd are the flush that copied every record to the heap, sorted with
// sort.Slice over freshly built byte arrays and encoded inside the
// writer; refMerge is the merge that decoded every frame into a Record
// for the writer to encode again; refSegment runs them into a file. The
// files both paths produce must be the same files.

// refIDLess is the order segments were sorted in: big-endian ID bytes.
func refIDLess(a, b ids.PhotoID) bool {
	ab, bb := a.Bytes(), b.Bytes()
	return bytes.Compare(ab[:], bb[:]) < 0
}

// refAdd is the old segWriter.add: it takes a Record and encodes it.
func refAdd(sw *segWriter, rec *Record) error {
	if sw.count > 0 && !refIDLess(sw.lastID, rec.ID) {
		return fmt.Errorf("ledger: segment records out of order (%s after %s)", rec.ID, sw.lastID)
	}
	sw.lastID = rec.ID
	if sw.count%indexStride == 0 {
		b := rec.ID.Bytes()
		sw.index = append(sw.index, b[:]...)
		sw.index = binary.LittleEndian.AppendUint64(sw.index, uint64(sw.off))
	}
	if rec.State == StateRevoked || rec.State == StatePermanentlyRevoked {
		b := rec.ID.Bytes()
		sw.revoked = append(sw.revoked, b[:]...)
	}
	frame, err := appendClaimFrame(nil, rec)
	if err != nil {
		return err
	}
	if err := sw.write(frame); err != nil {
		return err
	}
	sw.off += int64(len(frame))
	segBloomAdd(sw.bloom, segBloomK, rec.ID)
	sw.count++
	return nil
}

// refCopyMemtable is the old freeze: a heap copy per resident record.
func refCopyMemtable(l *Ledger) []*Record {
	var mem []*Record
	unlock := l.lockAllShards()
	defer unlock()
	for i := range l.shards {
		for _, rec := range l.shards[i].records {
			cp := *rec
			mem = append(mem, &cp)
		}
	}
	sort.Slice(mem, func(a, b int) bool { return refIDLess(mem[a].ID, mem[b].ID) })
	return mem
}

// refCursor and refMerge are the old segCursor and mergeSegments.
type refCursor struct {
	sr   *segReader
	off  int64
	cur  *Record
	curb [16]byte
	done bool
}

func (c *refCursor) advance() error {
	if c.off >= c.sr.dataEnd {
		c.done = true
		c.cur = nil
		return nil
	}
	payload, next, err := frameAt(c.sr.data[:c.sr.dataEnd], c.off)
	if err != nil {
		return err
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return err
	}
	if rec.kind != recClaim {
		return fmt.Errorf("ledger: segment %s holds non-claim record", c.sr.path)
	}
	c.cur = rec.rec
	c.curb = rec.rec.ID.Bytes()
	c.off = next
	return nil
}

func refMerge(memtable []*Record, segs []*segReader, fn func(*Record) error) error {
	cursors := make([]*refCursor, 0, len(segs))
	for _, sr := range segs {
		c := &refCursor{sr: sr, off: sr.dataStart}
		if err := c.advance(); err != nil {
			return err
		}
		cursors = append(cursors, c)
	}
	mi := 0
	for {
		var best *Record
		var bestKey [16]byte
		haveBest := false
		if mi < len(memtable) {
			best = memtable[mi]
			bestKey = best.ID.Bytes()
			haveBest = true
		}
		for _, c := range cursors {
			if c.done {
				continue
			}
			if !haveBest || bytes.Compare(c.curb[:], bestKey[:]) < 0 {
				best = c.cur
				bestKey = c.curb
				haveBest = true
			}
		}
		if !haveBest {
			return nil
		}
		if mi < len(memtable) && memtable[mi].ID == best.ID {
			best = memtable[mi]
			mi++
		}
		for _, c := range cursors {
			for !c.done && c.curb == bestKey {
				if err := c.advance(); err != nil {
					return err
				}
			}
		}
		if err := fn(best); err != nil {
			return err
		}
	}
}

// refSegment writes the old-path merge of the ledger's memtable (when
// withMem) and segs to a file of its own and returns the bytes.
func refSegment(t testing.TB, l *Ledger, withMem bool, segs []*segReader) []byte {
	t.Helper()
	var mem []*Record
	expected := 0
	if withMem {
		mem = refCopyMemtable(l)
		expected = len(mem)
	}
	for _, sr := range segs {
		expected += int(sr.count)
	}
	path := filepath.Join(t.TempDir(), "ref.seg")
	sw, err := newSegWriter(path, expected, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := refMerge(mem, segs, func(rec *Record) error { return refAdd(sw, rec) }); err != nil {
		t.Fatal(err)
	}
	if err := sw.finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// refStateHash is the old StateHash: decode, merge, encode, hash.
func refStateHash(t testing.TB, l *Ledger) [32]byte {
	t.Helper()
	h := sha256.New()
	var n [4]byte
	err := refMerge(refCopyMemtable(l), l.store.segs.Load().segs, func(rec *Record) error {
		payload, err := appendClaimPayload(nil, rec)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(n[:], uint32(len(payload)))
		h.Write(n[:])
		h.Write(payload)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// mixedRecords is makeRecords with every kind of record the encoder
// distinguishes: active, revoked, permanently revoked, custodial, and
// sequence numbers from zero to a six-byte varint.
func mixedRecords(t testing.TB, n int, seed int64) []Record {
	recs := makeRecords(t, 9, n, seed)
	for i := range recs {
		switch i % 7 {
		case 1:
			recs[i].Custodial = true
		case 3:
			recs[i].State = StatePermanentlyRevoked
		case 5:
			recs[i].OpSeq = 1<<40 + uint64(i)
		}
	}
	return recs
}

// liveSegment returns the bytes of the ledger's newest segment file.
func liveSegment(t testing.TB, l *Ledger) []byte {
	t.Helper()
	data, err := os.ReadFile(l.store.segs.Load().segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFlushMatchesReference: the segment a flush seals is byte for byte
// the one the old copy-sort-encode flush wrote from the same memtable,
// at shard counts 1 and 64, and StateHash is the old one before and
// after, live and reopened.
func TestFlushMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			dir := t.TempDir()
			l, err := New(Config{ID: 9, Dir: dir, Shards: shards, MemtableRecords: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			recs := mixedRecords(t, 700+int(seed)*97, seed)
			if err := l.RestoreRecords(recs); err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				frame, _ := appendClaimFrame(nil, &recs[i])
				if size := claimFrameSize(&recs[i]); len(frame) != size {
					t.Fatalf("claimFrameSize = %d for a %d-byte frame", size, len(frame))
				}
			}
			want := refSegment(t, l, true, nil)
			hash := refStateHash(t, l)
			if got := stateHash(t, l); got != hash {
				t.Fatal("StateHash of a memtable differs from the reference walk")
			}
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := liveSegment(t, l); !bytes.Equal(got, want) {
				t.Fatalf("shards=%d seed=%d: flushed segment (%d bytes) differs from the reference flush (%d bytes)", shards, seed, len(got), len(want))
			}
			if got := stateHash(t, l); got != hash || refStateHash(t, l) != hash {
				t.Fatal("StateHash changed across the flush")
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			rl, err := New(Config{ID: 9, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if got := stateHash(t, rl); got != hash {
				t.Fatal("StateHash differs after reopen")
			}
			rl.Close()
		}
	}
}

// TestCompactionMatchesReference: four segments with overlapping ids —
// each later one holding newer versions of a quarter of the one before —
// merge into the file the old decoding merge wrote, and the state
// (memtable included) hashes as the old walk hashed it, live and
// reopened.
func TestCompactionMatchesReference(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir, Shards: 8, MemtableRecords: 1 << 20, CompactAfter: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	recs := mixedRecords(t, 1300, 77)
	for seg := 0; seg < 4; seg++ {
		batch := append([]Record(nil), recs[seg*300:seg*300+400]...)
		for i := range batch[:100] {
			if seg > 0 { // a newer version of a record the previous segment holds
				batch[i].OpSeq += uint64(seg)
				batch[i].State = State(1 + (i+seg)%3)
			}
		}
		if err := l.RestoreRecords(batch); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// And a memtable over them, newer still, for the state walk.
	newest := append([]Record(nil), recs[350:380]...)
	for i := range newest {
		newest[i].OpSeq += 9
	}
	if err := l.RestoreRecords(newest); err != nil {
		t.Fatal(err)
	}
	segs := l.store.segs.Load().segs
	if len(segs) != 4 {
		t.Fatalf("segments = %d, want 4", len(segs))
	}
	if claims, _ := l.Count(); claims != len(recs) {
		t.Fatalf("claims = %d, want %d distinct", claims, len(recs))
	}
	hash := refStateHash(t, l)
	if got := stateHash(t, l); got != hash {
		t.Fatal("StateHash over memtable and four segments differs from the reference walk")
	}
	flushed := refSegment(t, l, true, nil)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveSegment(t, l), flushed) {
		t.Fatal("fifth flush differs from the reference flush")
	}
	want := refSegment(t, l, false, l.store.segs.Load().segs)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := l.StorageStats(); st.Segments != 1 || st.SegmentRecords != uint64(len(recs)) {
		t.Fatalf("after compaction: %d segments, %d records; want 1, %d", st.Segments, st.SegmentRecords, len(recs))
	}
	if got := liveSegment(t, l); !bytes.Equal(got, want) {
		t.Fatalf("compacted segment (%d bytes) differs from the reference merge (%d bytes)", len(got), len(want))
	}
	if got := stateHash(t, l); got != hash {
		t.Fatal("StateHash changed across compaction")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rl, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if got := stateHash(t, rl); got != hash {
		t.Fatal("StateHash differs after reopen")
	}
	if claims, _ := rl.Count(); claims != len(recs) {
		t.Fatalf("claims after reopen = %d, want %d", claims, len(recs))
	}
}

// TestRestoreCountsDistinctClaims: a newer version of an id the ledger
// holds — in the memtable or sealed — is stored and not counted again,
// by the running ledger, its claims counter and the WAL replay of a
// reopened one.
func TestRestoreCountsDistinctClaims(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir, MemtableRecords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 9, 60, 4)
	if err := l.RestoreRecords(recs); err != nil {
		t.Fatal(err)
	}
	if err := l.RestoreRecords(recs[:20]); err != nil { // held in the memtable
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.RestoreRecords(recs[10:40]); err != nil { // held in a segment
		t.Fatal(err)
	}
	if claims, _ := l.Count(); claims != len(recs) {
		t.Fatalf("claims = %d, want %d", claims, len(recs))
	}
	if m := l.Metrics(); m.Claims != uint64(len(recs)) {
		t.Fatalf("claims counter = %d, want %d", m.Claims, len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rl, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if claims, _ := rl.Count(); claims != len(recs) {
		t.Fatalf("claims after replay = %d, want %d", claims, len(recs))
	}
}

// TestMutationBetweenFreezeAndEviction: an owner operation and a
// permanent revocation that land after the flush has copied the
// memtable and before it evicts keep their records resident as the
// newer versions; Status and Record answer with them at once, and the
// next flush and a reopen keep them.
func TestMutationBetweenFreezeAndEviction(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir, Shards: 4, MemtableRecords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	o := newOwner(t)
	var claimed [6]ids.PhotoID
	for i := range claimed {
		claimed[i] = o.claim(t, l, hashOf(fmt.Sprintf("mid-flush-%d", i)), false).ID
	}
	applied, permanent, untouched := claimed[0], claimed[1], claimed[2]
	l.store.beforeEvict = func() {
		if err := l.Apply(applied, OpRevoke, o.signOp(applied, OpRevoke, 1)); err != nil {
			t.Error(err)
		}
		if err := l.PermanentRevoke(permanent); err != nil {
			t.Error(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.store.beforeEvict = nil

	check := func(l *Ledger, when string) {
		t.Helper()
		for _, want := range []struct {
			id    ids.PhotoID
			state State
			seq   uint64
		}{{applied, StateRevoked, 1}, {permanent, StatePermanentlyRevoked, 0}, {untouched, StateActive, 0}} {
			p, err := l.Status(want.id)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := l.Record(want.id)
			if err != nil {
				t.Fatal(err)
			}
			if p.State != want.state || rec.State != want.state || rec.OpSeq != want.seq {
				t.Fatalf("%s: %s: status %v, record %v seq %d; want %v seq %d", when, want.id, p.State, rec.State, rec.OpSeq, want.state, want.seq)
			}
		}
		if _, revoked := l.Count(); revoked != 2 {
			t.Fatalf("%s: revoked = %d, want 2", when, revoked)
		}
	}
	check(l, "after the flush")
	if st := l.StorageStats(); st.MemtableRecords != 2 {
		t.Fatalf("memtable holds %d records after the flush, want the 2 mutated ones", st.MemtableRecords)
	}
	for _, id := range []ids.PhotoID{applied, permanent} {
		if st, err := l.store.lookupState(id); err != nil || st != StateActive {
			t.Fatalf("segment holds %s as %v (%v); the cut was taken before the mutation", id, st, err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	check(l, "after the second flush")
	if st := l.StorageStats(); st.MemtableRecords != 0 {
		t.Fatalf("memtable holds %d records after the second flush", st.MemtableRecords)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rl, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	check(rl, "reopened")
}

// TestRebuiltMemtableKeepsSurvivors: when a flush rebuilds a shard's
// record and overlay maps after its eviction, the survivors — a record and an overlay an owner changed between the
// freeze and the eviction — move into the new maps. Status, StatusBatch
// and Record answer with them at once, the next flush seals them, and a
// reopen keeps them.
func TestRebuiltMemtableKeepsSurvivors(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir, Shards: 1, MemtableRecords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	o := newOwner(t)
	recs := makeRecords(t, 9, 80, 15)
	for i := range recs {
		recs[i].PubKey = o.pub
		recs[i].State, recs[i].OpSeq = StateActive, 0
	}
	// Forty claims sealed and revoked since (overlays), forty in the
	// memtable as records: the one shard froze 40 of each.
	sealed, fresh := recs[:40], recs[40:]
	if err := l.RestoreRecords(sealed); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range sealed {
		if err := l.Apply(sealed[i].ID, OpRevoke, o.signOp(sealed[i].ID, OpRevoke, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.RestoreRecords(fresh); err != nil {
		t.Fatal(err)
	}
	if records, overlays := memtable(l); records != 40 || overlays != 40 {
		t.Fatalf("memtable holds %d records and %d overlays, want 40 and 40", records, overlays)
	}

	rec, ov := fresh[0].ID, sealed[0].ID
	sh := &l.shards[0]
	maps := func() [2]uintptr {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return [2]uintptr{reflect.ValueOf(sh.records).Pointer(), reflect.ValueOf(sh.overlays).Pointer()}
	}
	frozen := maps()
	l.store.beforeEvict = func() {
		if err := l.Apply(rec, OpRevoke, o.signOp(rec, OpRevoke, 1)); err != nil {
			t.Error(err)
		}
		if err := l.Apply(ov, OpUnrevoke, o.signOp(ov, OpUnrevoke, 2)); err != nil {
			t.Error(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.store.beforeEvict = nil
	if records, overlays := memtable(l); records != 1 || overlays != 1 {
		t.Fatalf("memtable holds %d records and %d overlays after the flush, want the 1 and 1 changed", records, overlays)
	}
	if now := maps(); now[0] == frozen[0] || now[1] == frozen[1] {
		t.Fatal("1 survivor of 40 did not rebuild the shard's maps")
	}
	for id, want := range map[ids.PhotoID]State{rec: StateActive, ov: StateRevoked} {
		if st, err := l.store.lookupState(id); err != nil || st != want {
			t.Fatalf("segment holds %s as %v (%v); the cut was taken before the change", id, st, err)
		}
	}

	want := []struct {
		id    ids.PhotoID
		state State
		seq   uint64
	}{{rec, StateRevoked, 1}, {ov, StateActive, 2}, {sealed[1].ID, StateRevoked, 1}, {fresh[1].ID, StateActive, 0}}
	check := func(l *Ledger, when string) {
		t.Helper()
		batch := make([]ids.PhotoID, len(want))
		for i, w := range want {
			batch[i] = w.id
		}
		proofs, err := l.StatusBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			p, err := l.Status(w.id)
			if err != nil {
				t.Fatal(err)
			}
			r, err := l.Record(w.id)
			if err != nil {
				t.Fatal(err)
			}
			if p.State != w.state || proofs[i].State != w.state || r.State != w.state || r.OpSeq != w.seq {
				t.Fatalf("%s: %s: status %v, batch %v, record %v seq %d; want %v seq %d",
					when, w.id, p.State, proofs[i].State, r.State, r.OpSeq, w.state, w.seq)
			}
		}
	}
	check(l, "after the flush")
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if records, overlays := memtable(l); records != 0 || overlays != 0 {
		t.Fatalf("memtable holds %d records and %d overlays after the second flush", records, overlays)
	}
	for _, w := range want[:2] {
		if st, err := l.store.lookupState(w.id); err != nil || st != w.state {
			t.Fatalf("second flush sealed %s as %v (%v), want %v", w.id, st, err, w.state)
		}
	}
	check(l, "after the second flush")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rl, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	check(rl, "reopened")
}

// TestFlushReturnsMemtableCapacity: a flush that empties the memtable
// gives its maps' capacity back. A bulk restore of 50,000 claims and, on
// another ledger, 16,384 owner operations on sealed claims (overlays,
// as in a mass revocation), each followed by Flush, leave at most 8 B
// of live heap per id; a map that only lost entries to delete kept
// about 40.
// Every claim of the second ledger is revoked and every operation a
// revoke, so the resident revoked set does not move.
func TestFlushReturnsMemtableCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("live heap is asserted without the race detector")
	}
	const budget = 8.0
	check := func(t *testing.T, l *Ledger, before uint64, n int, what string) {
		t.Helper()
		grown := float64(int64(liveHeap())-int64(before)) / float64(n)
		t.Logf("%s of %d ids, then Flush: %.1f B of live heap per id", what, n, grown)
		if grown > budget {
			t.Errorf("%s then Flush keeps %.1f B of live heap per id, budget %.0f", what, grown, budget)
		}
		if records, overlays := memtable(l); records != 0 || overlays != 0 {
			t.Errorf("memtable holds %d records and %d overlays after the flush", records, overlays)
		}
	}

	// open makes a ledger at the default shard count whose appends skip
	// fsync, which costs the ops time and no memory.
	open := func(t *testing.T) *Ledger {
		l, err := New(Config{ID: 9, Dir: t.TempDir(), WALSync: WALSyncOS, MemtableRecords: 1 << 20, CompactAfter: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}

	t.Run("restore", func(t *testing.T) {
		const n = 50_000
		recs := makeRecords(t, 9, n, 13)
		for i := range recs {
			recs[i].State = StateActive // the resident revoked set stays empty
		}
		l := open(t)
		before := liveHeap()
		if err := l.RestoreRecords(recs); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		check(t, l, before, n, "RestoreRecords")
		runtime.KeepAlive(recs) // live before, so must be after
	})

	t.Run("owner ops", func(t *testing.T) {
		const n = 16_384 // each costs a signature and its verification
		o := newOwner(t)
		recs := makeRecords(t, 9, n, 14)
		sigs := make([][]byte, n)
		for i := range recs {
			recs[i].State = StateRevoked
			recs[i].PubKey = o.pub
			sigs[i] = o.signOp(recs[i].ID, OpRevoke, recs[i].OpSeq+1)
		}
		l := open(t)
		if err := l.RestoreRecords(recs); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		for i, sig := range sigs {
			if err := l.Apply(recs[i].ID, OpRevoke, sig); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		check(t, l, before, n, "Apply")
		runtime.KeepAlive(recs)
		runtime.KeepAlive(sigs)
	})
}

// mallocs counts the heap allocations of one call of f, for the paths
// testing.AllocsPerRun cannot repeat (a compaction consumes its input).
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestWritePathAllocationBudget: restore, freeze and compaction cost a
// fixed handful of allocations plus one per slab, where each cost one to
// five per record: a restore is its slabs and one frame buffer, the
// freeze one slab at any memtable size, and a compaction moves frames
// without building a Record.
func TestWritePathAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted without the race detector")
	}
	l, err := New(Config{ID: 9, Dir: t.TempDir(), MemtableRecords: 1 << 20, CompactAfter: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := makeRecords(t, 9, 20000, 8)

	// Restoring ids the memtable already holds keeps the shard maps from
	// growing, so what is counted is the restore's own.
	restore := testing.AllocsPerRun(3, func() {
		if err := l.RestoreRecords(recs[:10000]); err != nil {
			t.Fatal(err)
		}
	})
	if restore > 64 {
		t.Errorf("RestoreRecords of 10000 records: %.0f allocations, budget 64", restore)
	}

	freeze := func() float64 {
		return testing.AllocsPerRun(3, func() {
			unlock := l.lockAllShards()
			cut := l.copyMemtable()
			unlock()
			if len(cut) == 0 {
				t.Fatal("empty cut")
			}
		})
	}
	small := freeze()
	if err := l.RestoreRecords(recs[10000:]); err != nil {
		t.Fatal(err)
	}
	large := freeze()
	if small > 4 || large > 4 {
		t.Errorf("freeze of 10000 and 20000 records: %.0f and %.0f allocations, budget 4 at any size", small, large)
	}

	// Four segments of 5,000 records, each sharing 1,000 ids with the next.
	lc, err := New(Config{ID: 9, Dir: t.TempDir(), MemtableRecords: 1 << 20, CompactAfter: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	for seg := 0; seg < 4; seg++ {
		if err := lc.RestoreRecords(recs[seg*4000 : seg*4000+5000]); err != nil {
			t.Fatal(err)
		}
		if err := lc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := lc.StorageStats(); st.Segments != 4 || st.SegmentRecords != 20000 {
		t.Fatalf("%d segments of %d records, want 4 of 20000", st.Segments, st.SegmentRecords)
	}
	compact := mallocs(func() {
		if err := lc.Compact(); err != nil {
			t.Fatal(err)
		}
	})
	if compact > 200 {
		t.Errorf("compaction of 4 x 5000 records: %d allocations, budget 200", compact)
	}
	t.Logf("allocations: restore(10000) %.0f, freeze %.0f/%.0f, compaction %d", restore, small, large, compact)
}

// benchChunks restores recs the way the benchmark's set-up does: eight
// chunks through one slice the caller overwrites after every call.
func benchChunks(b *testing.B, l *Ledger, recs []Record) {
	const chunks = 8
	size := (len(recs) + chunks - 1) / chunks
	chunk := make([]Record, 0, size)
	for len(recs) > 0 {
		n := min(size, len(recs))
		chunk = append(chunk[:0], recs[:n]...)
		recs = recs[n:]
		if err := l.RestoreRecords(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreFlush is the shape of the end-to-end benchmark's
// set-up and of a replica catching up: 100,000 generated records
// restored in 8 chunks (crossing the default memtable limit once, so one
// flush runs in the background), then Flush.
func BenchmarkRestoreFlush(b *testing.B) {
	recs := makeRecords(b, 9, 100_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l, err := New(Config{ID: 9, Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		benchChunks(b, l, recs)
		if err := l.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		l.Close()
	}
}

// BenchmarkCompact merges 8 segments of 12,500 records into one.
func BenchmarkCompact(b *testing.B) {
	recs := makeRecords(b, 9, 100_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l, err := New(Config{ID: 9, Dir: b.TempDir(), MemtableRecords: 1 << 20, CompactAfter: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		for seg := 0; seg < 8; seg++ {
			if err := l.RestoreRecords(recs[seg*12500 : (seg+1)*12500]); err != nil {
				b.Fatal(err)
			}
			if err := l.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := l.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		l.Close()
	}
}
