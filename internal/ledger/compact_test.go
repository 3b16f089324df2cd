package ledger

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCompactShrinksWAL(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	o := newOwner(t)
	var rs []Receipt
	for i := 0; i < 30; i++ {
		rs = append(rs, o.claim(t, l, hashOf("c"+string(rune(i))), false))
	}
	// Generate op churn so the WAL holds more entries than live state.
	for _, r := range rs[:10] {
		for seq := uint64(1); seq <= 4; seq += 2 {
			if err := l.Apply(r.ID, OpRevoke, o.signOp(r.ID, OpRevoke, seq)); err != nil {
				t.Fatal(err)
			}
			if err := l.Apply(r.ID, OpUnrevoke, o.signOp(r.ID, OpUnrevoke, seq+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if before := l.StorageStats().WALBytes; before == 0 {
		t.Fatal("wal empty before compaction")
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := l.StorageStats(); st.WALBytes != 0 || st.Segments != 1 {
		t.Errorf("after compaction: wal %d bytes in %d segments, want 0 bytes in 1", st.WALBytes, st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from the segment only.
	l2, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	claims, revoked := l2.Count()
	if claims != 30 || revoked != 0 {
		t.Errorf("recovered claims=%d revoked=%d, want 30/0", claims, revoked)
	}
	// OpSeq must survive compaction: next valid op for churned claims is 5.
	r := rs[0]
	if err := l2.Apply(r.ID, OpRevoke, o.signOp(r.ID, OpRevoke, 4)); err == nil {
		t.Error("stale seq accepted after compaction recovery")
	}
	if err := l2.Apply(r.ID, OpRevoke, o.signOp(r.ID, OpRevoke, 5)); err != nil {
		t.Errorf("correct seq rejected after compaction recovery: %v", err)
	}
}

func TestCompactThenMoreOps(t *testing.T) {
	// Segment + post-compaction WAL entries both replay.
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	o := newOwner(t)
	r1 := o.claim(t, l, hashOf("pre"), false)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-compaction operations land in the fresh WAL.
	o2 := newOwner(t)
	r2 := o2.claim(t, l, hashOf("post"), true)
	if err := l.Apply(r1.ID, OpRevoke, o.signOp(r1.ID, OpRevoke, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	claims, revoked := l2.Count()
	if claims != 2 || revoked != 2 {
		t.Errorf("claims=%d revoked=%d, want 2/2", claims, revoked)
	}
	p1, err := l2.Status(r1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p1.State != StateRevoked {
		t.Errorf("r1 %v", p1.State)
	}
	p2, err := l2.Status(r2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p2.State != StateRevoked {
		t.Errorf("r2 %v", p2.State)
	}
}

func TestCompactIdempotentAndRepeatable(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{ID: 9, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	o := newOwner(t)
	o.claim(t, l, hashOf("a"), false)
	for i := 0; i < 3; i++ {
		if err := l.Compact(); err != nil {
			t.Fatalf("compact %d: %v", i, err)
		}
	}
	claims, _ := l.Count()
	if claims != 1 {
		t.Errorf("claims %d", claims)
	}
}

func TestCompactInMemoryNoop(t *testing.T) {
	l := newLedger(t)
	if err := l.Compact(); err != nil {
		t.Errorf("in-memory compact: %v", err)
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte("{not json]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{ID: 9, Dir: dir}); err == nil {
		t.Error("corrupt snapshot accepted — silent state loss")
	}
}
