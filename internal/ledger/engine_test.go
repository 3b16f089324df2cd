package ledger

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/tsa"
)

// makeRecords fabricates n deterministic, fully formed claim records
// for RestoreRecords — identical across ledgers and shard counts, the
// precondition of every state-equivalence check. Signatures and tokens
// are arbitrary bytes: replay and state hashing never verify them.
func makeRecords(t testing.TB, ledgerID ids.LedgerID, n int, seed int64) []Record {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		id, err := ids.NewFrom(ledgerID, rng)
		if err != nil {
			t.Fatal(err)
		}
		r := &recs[i]
		r.ID = id
		r.PubKey = make([]byte, ed25519.PublicKeySize)
		rng.Read(r.PubKey)
		r.HashSig = make([]byte, ed25519.SignatureSize)
		rng.Read(r.HashSig)
		rng.Read(r.ContentHash[:])
		sig := make([]byte, ed25519.SignatureSize)
		rng.Read(sig)
		r.Timestamp = &tsa.Token{
			Serial: uint64(i),
			Time:   time.Unix(0, rng.Int63()).UTC(),
			Sig:    sig,
		}
		rng.Read(r.Timestamp.Digest[:])
		r.State = StateActive
		if rng.Intn(10) == 0 {
			r.State = StateRevoked
		}
		r.OpSeq = uint64(rng.Intn(3))
	}
	return recs
}

func stateHash(t testing.TB, l *Ledger) [32]byte {
	t.Helper()
	h, err := l.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSegmentEngineBasicLifecycle(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir, WALSync: WALSyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	o := newOwner(t)
	h := hashOf("seg-basic")
	r := o.claim(t, l, h, false)
	if err := l.Apply(r.ID, OpRevoke, o.signOp(r.ID, OpRevoke, 1)); err != nil {
		t.Fatal(err)
	}
	// Seal the memtable; the record now lives only in a segment.
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	st := l.StorageStats()
	if st.Engine != "segments" || st.Segments != 1 {
		t.Fatalf("stats after flush: %+v", st)
	}
	if st.MemtableRecords != 0 {
		t.Fatalf("memtable not evicted after flush: %+v", st)
	}
	p, err := l.Status(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.State != StateRevoked {
		t.Fatalf("segment-served status %v, want revoked", p.State)
	}
	rec, err := l.Record(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.OpSeq != 1 || rec.State != StateRevoked {
		t.Fatalf("segment-served record %+v", rec)
	}
	// A post-flush op must materialize the record and advance OpSeq.
	if err := l.Apply(r.ID, OpUnrevoke, o.signOp(r.ID, OpUnrevoke, 2)); err != nil {
		t.Fatal(err)
	}
	claims, revoked := l.Count()
	if claims != 1 || revoked != 0 {
		t.Fatalf("count = %d/%d, want 1/0", claims, revoked)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.StorageStats().Engine; got != "segments" {
		t.Fatalf("auto-detected engine %q, want segments", got)
	}
	p2, err := l2.Status(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p2.State != StateActive {
		t.Fatalf("recovered state %v, want active", p2.State)
	}
	// Replay protection across flush + recovery: seq 2 was consumed.
	if err := l2.Apply(r.ID, OpRevoke, o.signOp(r.ID, OpRevoke, 2)); err == nil {
		t.Fatal("stale opseq accepted after segment recovery")
	}
}

func TestSegmentReopenShardAndEngineEquivalence(t *testing.T) {
	recs := makeRecords(t, 7, 500, 42)

	build := func(dir string, shards int) *Ledger {
		l, err := New(Config{ID: 7, Dir: dir, Shards: shards, MemtableRecords: 64})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(recs); i += 100 {
			if err := l.RestoreRecords(recs[i : i+100]); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}

	segDir := t.TempDir()
	seg := build(segDir, 8)
	want := stateHash(t, seg)
	if claims, _ := seg.Count(); claims != len(recs) {
		t.Fatalf("claims = %d, want %d", claims, len(recs))
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	// The digest must survive reopen at any shard count.
	for _, shards := range []int{1, 8, 32} {
		l, err := New(Config{ID: 7, Dir: segDir, Shards: shards})
		if err != nil {
			t.Fatalf("reopen shards=%d: %v", shards, err)
		}
		if got := stateHash(t, l); got != want {
			t.Errorf("shards=%d: state hash diverged", shards)
		}
		if claims, _ := l.Count(); claims != len(recs) {
			t.Errorf("shards=%d: claims = %d, want %d", shards, claims, len(recs))
		}
		l.Close()
	}

	// An in-memory ledger fed the same records must hash identically —
	// the independent oracle the storage bench gates on before timing.
	mem := build("", 8)
	defer mem.Close()
	if got := stateHash(t, mem); got != want {
		t.Error("in-memory and segment ledgers diverged on identical input")
	}
}

func TestSegmentBackgroundFlushAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 3, Dir: dir, MemtableRecords: 50, CompactAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := makeRecords(t, 3, 400, 7)
	// Feed one flush-triggering batch at a time, waiting for each
	// background flush to land, so segments accumulate to the
	// compaction threshold instead of one flush swallowing everything.
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < len(recs); i += 100 {
		if err := l.RestoreRecords(recs[i : i+100]); err != nil {
			t.Fatal(err)
		}
		want := uint64(i/100 + 1)
		for l.StorageStats().Flushes < want {
			if time.Now().After(deadline) {
				t.Fatalf("background flush %d never ran: %+v", want, l.StorageStats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for {
		st := l.StorageStats()
		if st.Compactions >= 1 {
			if st.Segments >= 3 {
				t.Fatalf("compaction ran but segments never merged: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never ran: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// All 400 records must still be visible through whatever mix of
	// memtable and merged segments resulted.
	if claims, _ := l.Count(); claims != len(recs) {
		t.Fatalf("claims = %d, want %d", claims, len(recs))
	}
	for _, i := range []int{0, 123, 399} {
		rec, err := l.Record(recs[i].ID)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.ContentHash != recs[i].ContentHash {
			t.Fatalf("record %d content hash mismatch", i)
		}
	}
}

func TestManualCompactMergesToOneSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 4, Dir: dir, CompactAfter: 100})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 4, 300, 11)
	for i := 0; i < len(recs); i += 100 {
		if err := l.RestoreRecords(recs[i : i+100]); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := stateHash(t, l)
	if st := l.StorageStats(); st.Segments != 3 {
		t.Fatalf("segments = %d, want 3", st.Segments)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	st := l.StorageStats()
	if st.Segments != 1 {
		t.Fatalf("segments after compact = %d, want 1", st.Segments)
	}
	if st.SegmentRecords != uint64(len(recs)) {
		t.Fatalf("merged segment holds %d records, want %d", st.SegmentRecords, len(recs))
	}
	if got := stateHash(t, l); got != before {
		t.Fatal("compaction changed state hash")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := New(Config{ID: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := stateHash(t, l2); got != before {
		t.Fatal("state hash diverged after compact + reopen")
	}
}

// TestEngineMismatchRefused: a directory left by the removed JSON engine
// must fail New with an error naming the offending file — opening it as
// a fresh segment store would silently ignore its records — and must be
// left exactly as found.
func TestEngineMismatchRefused(t *testing.T) {
	for _, name := range []string{"wal.log", "snapshot.json"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, name), []byte("[]\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := New(Config{ID: 5, Dir: dir})
			if err == nil {
				t.Fatal("opened a JSON-engine directory as an empty ledger")
			}
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error does not name %s: %v", name, err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 1 || ents[0].Name() != name {
				t.Errorf("refused open modified the directory: %v", ents)
			}
		})
	}
}

func TestSegmentWALRotationDropsCoveredFiles(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 6, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.RestoreRecords(makeRecords(t, 6, 50, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listWALFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 {
		t.Fatalf("wal files after flush: %v, want exactly the active file", seqs)
	}
	if _, err := os.Stat(filepath.Join(dir, walFileName(seqs[0]))); err != nil {
		t.Fatal(err)
	}
	if sz := l.StorageStats().WALBytes; sz != 0 {
		t.Fatalf("active wal size after flush = %d, want 0", sz)
	}
}

func TestStateHashDetectsDivergence(t *testing.T) {
	a, err := New(Config{ID: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{ID: 8})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 8, 20, 1)
	if err := a.RestoreRecords(recs); err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreRecords(recs[:19]); err != nil {
		t.Fatal(err)
	}
	if stateHash(t, a) == stateHash(t, b) {
		t.Fatal("state hash failed to distinguish differing ledgers")
	}
}

func TestSegmentLookupAcrossManyFlushes(t *testing.T) {
	// Newest-wins: re-revoking records across flush generations must
	// serve the latest state from the newest covering segment.
	dir := t.TempDir()
	l, err := New(Config{ID: 2, Dir: dir, CompactAfter: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	o := newOwner(t)
	var rs []Receipt
	for i := 0; i < 8; i++ {
		rs = append(rs, o.claim(t, l, hashOf(fmt.Sprintf("gen-%d", i)), false))
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Revoke the oldest claim — its newest version now lives in the
	// latest segment after another flush, shadowing seven older ones.
	if err := l.Apply(rs[0].ID, OpRevoke, o.signOp(rs[0].ID, OpRevoke, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	p, err := l.Status(rs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.State != StateRevoked {
		t.Fatalf("shadowed lookup state %v, want revoked", p.State)
	}
	// Reopen: the revoked set must rebuild with the shadow check.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := New(Config{ID: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if claims, revoked := l2.Count(); claims != 8 || revoked != 1 {
		t.Fatalf("recovered count %d/%d, want 8/1", claims, revoked)
	}
}
