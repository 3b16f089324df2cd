package ledger

import (
	"bytes"
	"crypto/ed25519"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"irs/internal/ids"
)

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	o := newOwner(t)
	h1 := hashOf("persist1")
	h2 := hashOf("persist2")

	l, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := l.Claim(h1, o.pub, ed25519.Sign(o.priv, ClaimMsg(h1)), false)
	if err != nil {
		t.Fatal(err)
	}
	o2 := newOwner(t)
	r2, err := l.Claim(h2, o2.pub, ed25519.Sign(o2.priv, ClaimMsg(h2)), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Apply(r1.ID, OpRevoke, o.signOp(r1.ID, OpRevoke, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.PermanentRevoke(r2.ID); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify full state.
	l2, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	claims, revoked := l2.Count()
	if claims != 2 || revoked != 2 {
		t.Errorf("recovered claims=%d revoked=%d, want 2/2", claims, revoked)
	}
	p1, err := l2.Status(r1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p1.State != StateRevoked {
		t.Errorf("r1 state %v, want revoked", p1.State)
	}
	p2, err := l2.Status(r2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p2.State != StatePermanentlyRevoked {
		t.Errorf("r2 state %v, want permanently revoked", p2.State)
	}
	// OpSeq must survive: the next revoke needs seq 2... but r1 is
	// revoked; unrevoke with seq 2 must work and seq 1 must not.
	if err := l2.Apply(r1.ID, OpUnrevoke, o.signOp(r1.ID, OpUnrevoke, 1)); err == nil {
		t.Error("stale opseq accepted after recovery")
	}
	if err := l2.Apply(r1.ID, OpUnrevoke, o.signOp(r1.ID, OpUnrevoke, 2)); err != nil {
		t.Errorf("correct opseq rejected after recovery: %v", err)
	}
}

// tornFrame is an append cut short by a crash: an op frame's header and
// the first bytes of its payload.
var tornFrame = appendOpFrame(nil, ids.PhotoID{}, OpRevoke, 1)[:frameHeaderSize+5]

func TestWALTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	o := newOwner(t)
	h := hashOf("torn")
	l, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Claim(h, o.pub, ed25519.Sign(o.priv, ClaimMsg(h)), false); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a frame header promising more payload
	// than the file holds.
	f, err := os.OpenFile(liveWAL(t, dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tornFrame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	defer l2.Close()
	claims, _ := l2.Count()
	if claims != 1 {
		t.Errorf("claims = %d, want 1", claims)
	}
	// And the ledger must be appendable again after truncation.
	o2 := newOwner(t)
	h2 := hashOf("after-torn")
	if _, err := l2.Claim(h2, o2.pub, ed25519.Sign(o2.priv, ClaimMsg(h2)), false); err != nil {
		t.Errorf("claim after torn recovery: %v", err)
	}
}

// TestWALTornTailShardedByteIdentical crashes a multi-record WAL
// mid-append and recovers it under several shard counts: every count
// must tolerate the torn tail, reconstruct the same logical state, and
// leave byte-identical WAL files behind (truncation must compute the
// same offset no matter how records scatter across shards).
func TestWALTornTailShardedByteIdentical(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	photoIDs := make([]ids.PhotoID, n)
	wantState := make([]State, n)
	for i := 0; i < n; i++ {
		o := newOwner(t)
		h := hashOf("sharded-torn-" + string(rune('a'+i)))
		r, err := l.Claim(h, o.pub, ed25519.Sign(o.priv, ClaimMsg(h)), false)
		if err != nil {
			t.Fatal(err)
		}
		photoIDs[i] = r.ID
		wantState[i] = StateActive
		if i%2 == 0 {
			if err := l.Apply(r.ID, OpRevoke, o.signOp(r.ID, OpRevoke, 1)); err != nil {
				t.Fatal(err)
			}
			wantState[i] = StateRevoked
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := liveWAL(t, dir)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, clean...), tornFrame...)

	for _, shards := range []int{1, 4, 32} {
		dir2 := copyLedgerDir(t, dir)
		path2 := filepath.Join(dir2, filepath.Base(path))
		if err := os.WriteFile(path2, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := New(Config{ID: 9, Dir: dir2, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: torn tail not tolerated: %v", shards, err)
		}
		claims, revoked := l2.Count()
		if claims != n || revoked != n/2 {
			t.Errorf("shards=%d: recovered claims=%d revoked=%d, want %d/%d", shards, claims, revoked, n, n/2)
		}
		for i, id := range photoIDs {
			p, err := l2.Status(id)
			if err != nil {
				t.Fatalf("shards=%d: status %s: %v", shards, id, err)
			}
			if p.State != wantState[i] {
				t.Errorf("shards=%d: id %d state %v, want %v", shards, i, p.State, wantState[i])
			}
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, clean) {
			t.Errorf("shards=%d: recovered WAL differs from the pre-crash bytes (len %d vs %d)", shards, len(got), len(clean))
		}
	}
}

// TestWALCrashMidBatchSharded tears the tail of a WAL written by a
// concurrent claim batch against a sharded ledger: recovery must keep
// every fully appended claim, drop exactly the torn one, stay
// appendable, and reach the same state on a second recovery.
func TestWALCrashMidBatchSharded(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := newOwner(t)
			h := hashOf("batch-" + string(rune('a'+i)))
			_, errs[i] = l.Claim(h, o.pub, ed25519.Sign(o.priv, ClaimMsg(h)), i%3 == 0)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-append of the batch's final entry: every claim frame is
	// far longer than 5 bytes, so chopping 5 tears exactly the last one.
	path := liveWAL(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	l2, err := New(Config{ID: 9, Dir: dir, Shards: 8})
	if err != nil {
		t.Fatalf("crash-mid-batch recovery: %v", err)
	}
	claims, _ := l2.Count()
	if claims != n-1 {
		t.Errorf("recovered %d claims, want %d (all but the torn append)", claims, n-1)
	}
	o := newOwner(t)
	h := hashOf("post-crash")
	if _, err := l2.Claim(h, o.pub, ed25519.Sign(o.priv, ClaimMsg(h)), false); err != nil {
		t.Fatalf("claim after crash recovery: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// The truncated-and-extended log must recover cleanly again.
	l3, err := New(Config{ID: 9, Dir: dir, Shards: 8})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer l3.Close()
	claims, _ = l3.Count()
	if claims != n {
		t.Errorf("second recovery found %d claims, want %d", claims, n)
	}
}

func TestWALEmptyDirFresh(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "ledger")
	l, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatalf("nested dir creation: %v", err)
	}
	defer l.Close()
	claims, _ := l.Count()
	if claims != 0 {
		t.Errorf("fresh ledger has %d claims", claims)
	}
	if err := l.Sync(); err != nil {
		t.Errorf("sync: %v", err)
	}
}

func BenchmarkClaimInMemory(b *testing.B) {
	l, err := New(Config{ID: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	o := newOwner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := hashOf(string(rune(i)))
		sig := ed25519.Sign(o.priv, ClaimMsg(h))
		if _, err := l.Claim(h, o.pub, sig, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStatus(b *testing.B) {
	l, err := New(Config{ID: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	o := newOwner(b)
	h := hashOf("bench")
	r, err := l.Claim(h, o.pub, ed25519.Sign(o.priv, ClaimMsg(h)), false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Status(r.ID); err != nil {
			b.Fatal(err)
		}
	}
}
