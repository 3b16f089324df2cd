package ledger

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The crash-injection suite. Every test here follows the same shape:
// build known state, kill a write at a chosen (or random) byte offset,
// and require the reopened ledger to land on a state the clean timeline
// actually passed through — checked with StateHash, at several shard
// counts, so recovery can never invent, drop, or reorder operations.

func copyLedgerDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// liveWAL returns the path of the one WAL file a closed ledger
// directory holds.
func liveWAL(t testing.TB, dir string) string {
	t.Helper()
	seqs, err := listWALFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 {
		t.Fatalf("wal sequences = %v, want exactly one", seqs)
	}
	return filepath.Join(dir, walFileName(seqs[0]))
}

// TestCrashRecoveryRandomWALTruncation records a StateHash after every
// single operation, then simulates crashes by truncating the live WAL
// at random byte offsets. Whatever prefix of appends survived, the
// recovered ledger must hash to exactly one of the recorded states —
// never a torn half-applied hybrid — at shard counts 1, 8, and 32.
func TestCrashRecoveryRandomWALTruncation(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{
		ID: 9, Dir: dir, Shards: 8,
		WALSync:         WALSyncBatch,
		MemtableRecords: 1 << 20, // no background flush mid-test
	})
	if err != nil {
		t.Fatal(err)
	}
	const nOps = 150
	const flushAt = 100
	recs := makeRecords(t, 9, nOps, 42)

	type point struct {
		hash   [32]byte
		claims uint64
	}
	var timeline []point
	var claims uint64
	record := func() {
		timeline = append(timeline, point{stateHash(t, l), claims})
	}
	record()
	for i := 0; i < nOps; i++ {
		if err := l.RestoreRecords(recs[i : i+1]); err != nil {
			t.Fatal(err)
		}
		claims++
		record()
		if i%5 == 4 {
			if err := l.PermanentRevoke(recs[i-2].ID); err != nil {
				t.Fatal(err)
			}
			record()
		}
		if i == flushAt {
			// A flush mid-history cuts a segment and rotates the WAL, so
			// the injected truncations land on a file whose replay starts
			// from durable segment state, not from empty.
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	known := make(map[[32]byte]uint64, len(timeline))
	for _, p := range timeline {
		known[p.hash] = p.claims
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	wal := liveWAL(t, dir)
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()
	if size == 0 {
		t.Fatal("live wal is empty; test is not exercising replay")
	}

	rng := rand.New(rand.NewSource(7))
	shardCounts := []int{1, 8, 32}
	for trial := 0; trial < 24; trial++ {
		off := rng.Int63n(size + 1)
		crashed := copyLedgerDir(t, dir)
		if err := os.Truncate(filepath.Join(crashed, filepath.Base(wal)), off); err != nil {
			t.Fatal(err)
		}
		rl, err := New(Config{ID: 9, Dir: crashed, Shards: shardCounts[trial%len(shardCounts)]})
		if err != nil {
			t.Fatalf("trial %d (cut at %d/%d): reopen failed: %v", trial, off, size, err)
		}
		h := stateHash(t, rl)
		wantClaims, ok := known[h]
		if !ok {
			t.Fatalf("trial %d (cut at %d/%d): recovered state matches no point on the clean timeline", trial, off, size)
		}
		if got, _ := rl.Count(); uint64(got) != wantClaims {
			t.Fatalf("trial %d: recovered claim count %d, state says %d", trial, got, wantClaims)
		}
		if err := rl.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashDuringSegmentSealRecovers kills the segment writer at
// several byte offsets mid-seal. A failed seal must not lose or corrupt
// anything: the WAL already holds every record, so both the live ledger
// and a reopened one must hash identically to the pre-crash state.
func TestCrashDuringSegmentSealRecovers(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{
		ID: 9, Dir: dir, Shards: 8,
		MemtableRecords: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 9, 200, 11)
	if err := l.RestoreRecords(recs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.PermanentRevoke(recs[i*7].ID); err != nil {
			t.Fatal(err)
		}
	}
	want := stateHash(t, l)

	eng := l.store
	for _, failAfter := range []int64{16, 1000, 8000} {
		eng.segFailAfter.Store(failAfter)
		if err := l.Flush(); err == nil {
			t.Fatalf("flush with seal killed after %d bytes reported success", failAfter)
		}
		if got := stateHash(t, l); got != want {
			t.Fatalf("state changed after failed seal (failAfter=%d)", failAfter)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: nothing was sealed, so everything replays from the WALs.
	rl, err := New(Config{ID: 9, Dir: dir, Shards: 32})
	if err != nil {
		t.Fatal(err)
	}
	if got := stateHash(t, rl); got != want {
		t.Fatal("recovered state differs after crashed seals")
	}
	// And a clean flush afterwards still works and preserves state.
	if err := rl.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := stateHash(t, rl); got != want {
		t.Fatal("state changed across post-crash flush")
	}
	if st := rl.StorageStats(); st.Segments != 1 {
		t.Fatalf("segments after clean flush = %d, want 1", st.Segments)
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringCompactionRecovers kills the merge writer mid-
// compaction. Compaction is strictly additive until the manifest swap,
// so a killed merge must leave the old segments live and the state
// untouched, both in-process and across a reopen.
func TestCrashDuringCompactionRecovers(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{
		ID: 9, Dir: dir, Shards: 8,
		MemtableRecords: 1 << 20, CompactAfter: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 9, 300, 23)
	for i := 0; i < 3; i++ {
		if err := l.RestoreRecords(recs[i*100 : (i+1)*100]); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.StorageStats(); st.Segments != 3 {
		t.Fatalf("segments = %d, want 3", st.Segments)
	}
	want := stateHash(t, l)

	eng := l.store
	eng.segFailAfter.Store(64)
	if err := l.Compact(); err == nil {
		t.Fatal("compaction with killed merge writer reported success")
	}
	if st := l.StorageStats(); st.Segments != 3 {
		t.Fatalf("failed compaction changed live segments: %d", st.Segments)
	}
	if got := stateHash(t, l); got != want {
		t.Fatal("failed compaction changed state")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rl, err := New(Config{ID: 9, Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := stateHash(t, rl); got != want {
		t.Fatal("recovered state differs after crashed compaction")
	}
	if err := rl.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := rl.StorageStats(); st.Segments != 1 {
		t.Fatalf("segments after clean compaction = %d, want 1", st.Segments)
	}
	if got := stateHash(t, rl); got != want {
		t.Fatal("clean compaction changed state")
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryRemovesOrphans: a crash can leave a partially written
// segment and a manifest temp file behind; recovery must sweep both
// without touching live state.
func TestRecoveryRemovesOrphans(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir, MemtableRecords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.RestoreRecords(makeRecords(t, 9, 100, 31)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	want := stateHash(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	orphanSeg := filepath.Join(dir, segFileName(999))
	orphanTmp := filepath.Join(dir, "MANIFEST.tmp")
	for _, p := range []string{orphanSeg, orphanTmp} {
		if err := os.WriteFile(p, []byte("partial write from a crashed process"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rl, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	for _, p := range []string{orphanSeg, orphanTmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived recovery (err=%v)", filepath.Base(p), err)
		}
	}
	if got := stateHash(t, rl); got != want {
		t.Fatal("orphan sweep changed state")
	}
}

// TestBinaryWALMidFileCorruptionRefused: bit rot in the middle of a WAL
// file — complete frames follow the bad one — is not a torn tail and
// must fail recovery loudly instead of silently dropping records.
func TestBinaryWALMidFileCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir, WALSync: WALSyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.RestoreRecords(makeRecords(t, 9, 50, 13)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	wal := liveWAL(t, dir)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderSize+2] ^= 0xff // first frame's payload; 49 intact frames follow
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := New(Config{ID: 9, Dir: dir}); err == nil {
		t.Fatal("recovery accepted a corrupt wal interior")
	} else if !strings.Contains(err.Error(), "wal") {
		t.Fatalf("corruption error does not identify the wal: %v", err)
	}
}

// FuzzWALReplayBytes feeds arbitrary bytes through the binary WAL
// replay path. Any outcome is acceptable except a panic or an
// out-of-bounds read.
func FuzzWALReplayBytes(f *testing.F) {
	recs := makeRecords(f, 9, 2, 3)
	var valid []byte
	valid, err := appendClaimFrame(valid, &recs[0])
	if err != nil {
		f.Fatal(err)
	}
	valid = appendOpFrame(valid, recs[0].ID, OpRevoke, 1)
	valid = appendPermFrame(valid, recs[1].ID)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add([]byte{})
	f.Add([]byte("not a wal at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), walFileName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := New(Config{ID: 9})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		replayWALFile(l, path, true)  // errors fine; panics are not
		replayWALFile(l, path, false) // file may have been truncated above; still must not panic
	})
}
