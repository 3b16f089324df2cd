package ledger

import (
	"errors"
	"sync"
	"testing"

	"irs/internal/bloom"
	"irs/internal/ids"
)

func TestSnapshotBeforeBuild(t *testing.T) {
	l := newLedger(t)
	if _, _, err := l.FilterSnapshot(); err != ErrNoSnapshot {
		t.Errorf("got %v, want ErrNoSnapshot", err)
	}
}

func TestSnapshotContainsRevoked(t *testing.T) {
	l := newLedger(t)
	var revokedIDs, activeIDs []ids.PhotoID
	for i := 0; i < 50; i++ {
		o := newOwner(t)
		r := o.claim(t, l, hashOf(string(rune('a'+i))), i%2 == 0)
		if i%2 == 0 {
			revokedIDs = append(revokedIDs, r.ID)
		} else {
			activeIDs = append(activeIDs, r.ID)
		}
	}
	seq, err := l.BuildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Errorf("first epoch = %d, want 1", seq)
	}
	gotSeq, f, err := l.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != seq {
		t.Errorf("snapshot seq %d != built %d", gotSeq, seq)
	}
	for _, id := range revokedIDs {
		if !f.Test(FilterKey(id)) {
			t.Errorf("revoked id %v missing from filter — would break 'miss means not revoked'", id)
		}
	}
	// Active ids should mostly miss (false positives allowed at ~2%,
	// and the min-population floor makes them far rarer here).
	hits := 0
	for _, id := range activeIDs {
		if f.Test(FilterKey(id)) {
			hits++
		}
	}
	if hits > len(activeIDs)/4 {
		t.Errorf("%d/%d active ids hit the revocation filter", hits, len(activeIDs))
	}
}

func TestSnapshotDelta(t *testing.T) {
	l := newLedger(t)
	owners := make([]*owner, 0, 40)
	receipts := make([]Receipt, 0, 40)
	for i := 0; i < 40; i++ {
		o := newOwner(t)
		owners = append(owners, o)
		receipts = append(receipts, o.claim(t, l, hashOf("d"+string(rune(i))), false))
	}
	seq1, err := l.BuildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, f1, err := l.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Revoke ten photos, build epoch 2.
	for i := 0; i < 10; i++ {
		if err := l.Apply(receipts[i].ID, OpRevoke, owners[i].signOp(receipts[i].ID, OpRevoke, 1)); err != nil {
			t.Fatal(err)
		}
	}
	seq2, err := l.BuildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != seq1+1 {
		t.Errorf("epoch 2 = %d", seq2)
	}
	h1 := f1.Hash()
	delta, latest, err := l.FilterSync(seq1, h1[:])
	if err != nil {
		t.Fatal(err)
	}
	if latest != seq2 {
		t.Errorf("latest = %d, want %d", latest, seq2)
	}
	// Applying the delta to epoch 1 must produce a filter containing the
	// newly revoked ids.
	f1, err = bloom.ApplyUpdate(f1, delta)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !f1.Test(FilterKey(receipts[i].ID)) {
			t.Errorf("delta-updated filter missing revoked id %d", i)
		}
	}
	// A delta should be far smaller than the full snapshot.
	_, f2, err := l.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) >= len(f2.Marshal())/2 {
		t.Errorf("delta %d bytes vs full %d — not a saving", len(delta), len(f2.Marshal()))
	}
}

// TestSnapshotDeltaSameEpoch: a caller at the latest epoch number gets
// nothing only if it also holds the latest bits; the same epoch number
// over different bits (an origin that restarted and renumbered) must
// get a full snapshot, never "you are current".
func TestSnapshotDeltaSameEpoch(t *testing.T) {
	l := newLedger(t)
	if _, err := l.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	_, f, err := l.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	h := f.Hash()
	payload, latest, err := l.FilterSync(1, h[:])
	if err != nil || latest != 1 || payload != nil {
		t.Fatalf("current caller: %d payload bytes, latest %d, %v", len(payload), latest, err)
	}
	payload, latest, err = l.FilterSync(1, make([]byte, 32))
	if err != nil || latest != 1 {
		t.Fatalf("wrong-bits caller: latest %d, %v", latest, err)
	}
	got, err := bloom.ApplyUpdate(nil, payload)
	if err != nil {
		t.Fatalf("wrong-bits caller should get a standalone snapshot: %v", err)
	}
	if got.Hash() != h {
		t.Error("snapshot payload does not reproduce the latest filter")
	}
}

func TestSnapshotHistoryEviction(t *testing.T) {
	l, err := New(Config{ID: 5, FilterHistory: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, err := l.BuildSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	// Epochs 1 and 2 must be evicted with history 3 (epochs 3,4,5 kept):
	// every epoch here publishes the same empty filter, so the caller's
	// hash is right and only retention decides between delta and resync.
	_, f, err := l.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	h := f.Hash()
	for from, wantResync := range map[uint64]bool{1: true, 3: false} {
		payload, latest, err := l.FilterSync(from, h[:])
		if err != nil || latest != 5 {
			t.Fatalf("sync from epoch %d: latest %d, %v", from, latest, err)
		}
		// Only a full snapshot applies without a base.
		_, err = bloom.ApplyUpdate(nil, payload)
		if resync := err == nil; resync != wantResync {
			t.Errorf("sync from epoch %d: full resync = %v, want %v", from, resync, wantResync)
		}
	}
}

func TestFilterSync(t *testing.T) {
	l := newLedger(t)
	owners := make([]*owner, 0, 40)
	receipts := make([]Receipt, 0, 40)
	for i := 0; i < 40; i++ {
		o := newOwner(t)
		owners = append(owners, o)
		receipts = append(receipts, o.claim(t, l, hashOf("s"+string(rune(i))), false))
	}
	if _, _, err := l.FilterSync(0, nil); err != ErrNoSnapshot {
		t.Fatalf("before build: got %v, want ErrNoSnapshot", err)
	}
	seq1, err := l.BuildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, f1, err := l.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	h1 := f1.Hash()

	// Up to date: empty payload.
	payload, latest, err := l.FilterSync(seq1, h1[:])
	if err != nil {
		t.Fatal(err)
	}
	if latest != seq1 || payload != nil {
		t.Fatalf("up-to-date sync: payload %d bytes latest %d", len(payload), latest)
	}

	// Revoke and build epoch 2: a valid base gets a delta that lands on
	// the new filter.
	for i := 0; i < 10; i++ {
		if err := l.Apply(receipts[i].ID, OpRevoke, owners[i].signOp(receipts[i].ID, OpRevoke, 1)); err != nil {
			t.Fatal(err)
		}
	}
	seq2, err := l.BuildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	payload, latest, err = l.FilterSync(seq1, h1[:])
	if err != nil {
		t.Fatal(err)
	}
	if latest != seq2 {
		t.Fatalf("latest = %d, want %d", latest, seq2)
	}
	got, err := bloom.ApplyUpdate(f1, payload)
	if err != nil {
		t.Fatal(err)
	}
	_, f2, err := l.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != f2.Hash() {
		t.Fatal("sync payload did not reproduce latest filter")
	}

	// A caller claiming epoch seq1 but holding different bits (restarted
	// origin scenario) must get a full snapshot, not a delta that would
	// corrupt it.
	bogus := make([]byte, 32)
	payload, _, err = l.FilterSync(seq1, bogus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bloom.ApplyUpdate(nil, payload); err != nil {
		t.Fatalf("mismatched-base sync should carry a standalone snapshot: %v", err)
	}

	// Unknown epochs — ahead of the origin or expired from history —
	// also resolve to a snapshot, never an error.
	for _, from := range []uint64{99, 0} {
		payload, latest, err = l.FilterSync(from, h1[:])
		if err != nil {
			t.Fatal(err)
		}
		if latest != seq2 {
			t.Fatalf("latest = %d, want %d", latest, seq2)
		}
		if _, err := bloom.ApplyUpdate(nil, payload); err != nil {
			t.Fatalf("epoch %d sync should carry a standalone snapshot: %v", from, err)
		}
	}
}

// TestBuildSnapshotConcurrentEpochsIncrease: concurrent builds each
// publish their own epoch, the epochs are exactly 1..n, and a reader
// polling beside them never sees the published epoch step back.
func TestBuildSnapshotConcurrentEpochsIncrease(t *testing.T) {
	const builders, rounds = 4, 25
	l := newLedger(t)
	if err := l.RestoreRecords(makeRecords(t, l.ID(), 50, 9)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, latest, err := l.FilterSync(0, nil)
			if errors.Is(err, ErrNoSnapshot) {
				continue
			}
			if err != nil || latest < last {
				t.Errorf("reader saw epoch %d after %d (err %v)", latest, last, err)
				return
			}
			last = latest
		}
	}()
	got := make([][]uint64, builders)
	var wg sync.WaitGroup
	for b := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				seq, err := l.BuildSnapshot()
				if err != nil {
					t.Error(err)
					return
				}
				got[b] = append(got[b], seq)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	seen := make(map[uint64]bool)
	for b, seqs := range got {
		for i, seq := range seqs {
			if i > 0 && seq <= seqs[i-1] {
				t.Errorf("builder %d: epoch %d after %d", b, seq, seqs[i-1])
			}
			if seen[seq] {
				t.Errorf("epoch %d published twice", seq)
			}
			seen[seq] = true
		}
	}
	if latest, _, _ := l.FilterSnapshot(); len(seen) != builders*rounds || latest != builders*rounds {
		t.Errorf("%d distinct epochs, latest %d; want %d of each", len(seen), latest, builders*rounds)
	}
}

// Restoring an *active* newer version of a previously revoked record
// must clear the revoked index, or every future filter snapshot keeps
// advertising the claim as revoked (stale-revocation leak through the
// replication ingest path).
func TestRestoreRecordsClearsRevokedIndex(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  bool
	}{
		{"memory", false},
		{"segments", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{ID: 7}
			if tc.dir {
				cfg.Dir = t.TempDir()
			}
			l, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			recs := makeRecords(t, 7, 8, 42)
			for i := range recs {
				recs[i].State = StateRevoked
			}
			if err := l.RestoreRecords(recs); err != nil {
				t.Fatal(err)
			}
			// Owner un-revokes: replicate the newer active version.
			upd := make([]Record, len(recs))
			copy(upd, recs)
			for i := range upd {
				upd[i].State = StateActive
				upd[i].OpSeq++
			}
			if err := l.RestoreRecords(upd); err != nil {
				t.Fatal(err)
			}
			if _, err := l.BuildSnapshot(); err != nil {
				t.Fatal(err)
			}
			_, f, err := l.FilterSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				if f.Test(FilterKey(recs[i].ID)) {
					t.Fatalf("%s: un-revoked claim %d still in revocation filter", tc.name, i)
				}
			}
		})
	}
}

func TestFilterKeyStable(t *testing.T) {
	id := mustID(t)
	if FilterKey(id) != FilterKey(id) {
		t.Error("FilterKey not deterministic")
	}
	other := mustID(t)
	if FilterKey(id) == FilterKey(other) {
		t.Error("distinct ids collided (astronomically unlikely)")
	}
}
