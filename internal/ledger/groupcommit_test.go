package ledger

import (
	"crypto/ed25519"
	"errors"
	"os"
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

// TestWALSyncOSDefersDurability: in the default mode appends must not
// fsync at all; the periodic Sync is the durability point.
func TestWALSyncOSDefersDurability(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.RestoreRecords(makeRecords(t, 9, 64, 5)); err != nil {
		t.Fatal(err)
	}
	if st := l.StorageStats(); st.WALSyncs != 0 {
		t.Fatalf("WALSyncOS issued %d fsyncs on append", st.WALSyncs)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.StorageStats(); st.WALSyncs == 0 {
		t.Fatal("Sync() did not reach the disk")
	}
}
