package ledger

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupCommitCoalescesSyncs is the acceptance check for group
// commit: N concurrent durable appends must cost far fewer than N
// fsyncs. The injectable sync hook counts batches and slows each one
// enough that waiters demonstrably stack up behind the leader.
func TestGroupCommitCoalescesSyncs(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir, WALSync: WALSyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	eng := l.store
	var syncs atomic.Uint64
	eng.wal.syncFile = func(f *os.File) error {
		syncs.Add(1)
		time.Sleep(time.Millisecond)
		return f.Sync()
	}

	const writers = 16
	const perWriter = 16
	recs := makeRecords(t, 9, writers*perWriter, 99)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				one := recs[w*perWriter+i : w*perWriter+i+1]
				if err := l.RestoreRecords(one); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	appends := uint64(writers * perWriter)
	got := syncs.Load()
	if got == 0 {
		t.Fatal("durable mode issued no fsyncs")
	}
	if got > appends/2 {
		t.Fatalf("group commit did not coalesce: %d syncs for %d appends", got, appends)
	}
	t.Logf("%d appends coalesced onto %d fsync batches", appends, got)
	if st := l.StorageStats(); st.WALRecords != appends {
		t.Fatalf("wal records = %d, want %d", st.WALRecords, appends)
	}
}

// TestGroupCommitLeaderWritesCallersBytes: an appender that finds the
// log idle writes its own frames without staging a copy; one that
// arrives while that leader is in its fsync is staged, written next, and
// lands after it in the file; and the two staging buffers then alternate
// without a fresh one per batch.
func TestGroupCommitLeaderWritesCallersBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := openGCWAL(dir, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 9, 2, 6)
	first, _ := appendClaimFrame(nil, &recs[0])
	second, _ := appendClaimFrame(nil, &recs[1])

	inSync, release := make(chan struct{}), make(chan struct{})
	var syncs atomic.Uint64
	w.syncFile = func(f *os.File) error {
		if syncs.Add(1) == 1 {
			close(inSync)
			<-release
		}
		return f.Sync()
	}
	leader, follower := make(chan error, 1), make(chan error, 1)
	go func() { leader <- w.append(first, 1) }()
	<-inSync
	w.mu.Lock()
	if len(w.pending) != 0 || cap(w.pending) != 0 {
		t.Errorf("the leader staged %d bytes of its own frames (cap %d)", len(w.pending), cap(w.pending))
	}
	w.mu.Unlock()
	go func() { follower <- w.append(second, 1) }()
	for staged := 0; staged < len(second); time.Sleep(time.Millisecond) {
		w.mu.Lock()
		staged = len(w.pending)
		w.mu.Unlock()
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if err := <-follower; err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, walFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte(nil), first...), second...); !bytes.Equal(got, want) {
		t.Fatalf("wal holds %d bytes, want the leader's %d then the follower's %d", len(got), len(first), len(second))
	}
	if w.walSize() != int64(len(got)) || w.records.Load() != 2 || syncs.Load() != 2 {
		t.Fatalf("size %d records %d syncs %d, want %d 2 2", w.walSize(), w.records.Load(), syncs.Load(), len(got))
	}

	// From here every batch is staged (stage is append's own staging
	// step, so no batch takes the direct path) and must reuse the two
	// buffers: no allocation per batch once both exist.
	if !raceEnabled {
		stage := func() {
			w.mu.Lock()
			w.pending = append(w.pending, second...)
			w.writeSeq++
			w.drain()
			w.mu.Unlock()
		}
		stage()
		stage()
		if n := testing.AllocsPerRun(20, stage); n != 0 {
			t.Errorf("a staged batch costs %.0f allocations, want the two retained buffers to alternate", n)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitStickyError: a failed batch fsync must poison every
// waiter it covered and all subsequent appends, and the claim path must
// roll its record back out of memory.
func TestGroupCommitStickyError(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir, WALSync: WALSyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	o := newOwner(t)
	o.claim(t, l, hashOf("before-poison"), false)

	eng := l.store
	boom := errors.New("disk gone")
	eng.wal.syncFile = func(*os.File) error { return boom }

	h := hashOf("poisoned")
	if _, err := l.Claim(h, o.pub, ed25519.Sign(o.priv, ClaimMsg(h)), false); !errors.Is(err, boom) {
		t.Fatalf("claim error = %v, want wrapped %v", err, boom)
	}
	// The failed claim must not be visible.
	if claims, _ := l.Count(); claims != 1 {
		t.Fatalf("claims after failed append = %d, want 1", claims)
	}
	// The error is sticky: later appends fail without touching the disk.
	h2 := hashOf("after-poison")
	if _, err := l.Claim(h2, o.pub, ed25519.Sign(o.priv, ClaimMsg(h2)), false); !errors.Is(err, boom) {
		t.Fatalf("append after poisoned wal = %v, want wrapped %v", err, boom)
	}
	l.Close()
}

// TestWALSyncOSDefersDurability: in WALSyncOS mode appends must not
// fsync at all; the log is synced when it rotates and at Close.
// TestCrashDropsUnsyncedBytes shows what a crash before then loses.
func TestWALSyncOSDefersDurability(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir, WALSync: WALSyncOS})
	if err != nil {
		t.Fatal(err)
	}
	var synced atomic.Uint64
	l.store.wal.syncFile = func(f *os.File) error {
		synced.Add(1)
		return f.Sync()
	}
	if err := l.RestoreRecords(makeRecords(t, 9, 64, 5)); err != nil {
		t.Fatal(err)
	}
	if st := l.StorageStats(); st.WALSyncs != 0 || synced.Load() != 0 {
		t.Fatalf("WALSyncOS issued %d fsyncs on append (%d through the seam)", st.WALSyncs, synced.Load())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if synced.Load() != 1 {
		t.Fatalf("Close synced the log %d times, want once", synced.Load())
	}
}
