package topology

import (
	"crypto/ed25519"
	"crypto/rand"
	"testing"

	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/tsa"
)

func newOriginLedger(t testing.TB, id ids.LedgerID) *ledger.Ledger {
	t.Helper()
	l, err := ledger.New(ledger.Config{ID: id})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// fabRecords builds fully-populated records for the Restore path
// (StateHash canonicalizes every field, so each needs a timestamp
// token too); revoked selects which are revoked at birth.
func fabRecords(t testing.TB, lid ids.LedgerID, n int, revoked func(i int) bool) []ledger.Record {
	t.Helper()
	recs := make([]ledger.Record, n)
	for i := range recs {
		id, err := ids.New(lid)
		if err != nil {
			t.Fatal(err)
		}
		r := &recs[i]
		r.ID = id
		r.PubKey = make([]byte, ed25519.PublicKeySize)
		rand.Read(r.PubKey)
		r.HashSig = make([]byte, ed25519.SignatureSize)
		rand.Read(r.HashSig)
		rand.Read(r.ContentHash[:])
		sig := make([]byte, ed25519.SignatureSize)
		rand.Read(sig)
		r.Timestamp = &tsa.Token{Serial: uint64(i), Time: time.Unix(1700000000+int64(i), 0).UTC(), Sig: sig}
		r.Timestamp.Digest = r.ContentHash
		r.State = ledger.StateActive
		if revoked(i) {
			r.State = ledger.StateRevoked
		}
	}
	return recs
}

// TestReplicaCatchUp: log shipping end to end — claims and revocations
// restored at the origin appear in replica StatusBatch reads once a
// signed checkpoint has gated the catch-up.
func TestReplicaCatchUp(t *testing.T) {
	reg := obs.NewRegistry()
	o, err := NewOrigin(newOriginLedger(t, 4), reg)
	if err != nil {
		t.Fatal(err)
	}
	// A claim and then its revocation, each a Restore of the record:
	// two log entries for one identifier, which the replica's ingest
	// must fold to the newer.
	claim := fabRecords(t, 4, 1, func(int) bool { return false })
	if err := o.Restore(claim); err != nil {
		t.Fatal(err)
	}
	revoked := claim[0]
	revoked.State = ledger.StateRevoked
	if err := o.Restore([]ledger.Record{revoked}); err != nil {
		t.Fatal(err)
	}
	// Plus a bulk population through Restore.
	bulk := fabRecords(t, 4, 50, func(i int) bool { return i < 10 })
	if err := o.Restore(bulk); err != nil {
		t.Fatal(err)
	}

	r, err := NewReplica(4, o.ReplicationKey(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.L.Close()
	if r.Ready() {
		t.Fatal("replica ready before any catch-up")
	}
	cp, err := o.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CatchUp(o, cp); err != nil {
		t.Fatal(err)
	}
	if !r.Ready() {
		t.Fatal("replica not ready after verified catch-up")
	}
	if r.applied != cp.Seq {
		t.Fatalf("applied %d, want %d", r.applied, cp.Seq)
	}
	// Replica state is byte-equivalent to the origin.
	oh, err := o.L.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	rh, err := r.L.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	if oh != rh {
		t.Fatal("replica StateHash differs from origin")
	}
	// Reads served by the replica see the revocation.
	proofs, err := r.L.StatusBatch([]ids.PhotoID{claim[0].ID, bulk[0].ID, bulk[20].ID})
	if err != nil {
		t.Fatal(err)
	}
	if proofs[0].State != ledger.StateRevoked {
		t.Errorf("replicated claim state %v, want revoked", proofs[0].State)
	}
	if proofs[1].State != ledger.StateRevoked || proofs[2].State != ledger.StateActive {
		t.Error("bulk-replicated states wrong")
	}

	// Incremental round: more writes, new checkpoint, catch-up applies
	// only the tail.
	if err := o.Restore(fabRecords(t, 4, 5, func(int) bool { return true })); err != nil {
		t.Fatal(err)
	}
	cp2, err := o.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CatchUp(o, cp2); err != nil {
		t.Fatal(err)
	}
	if r.applied != cp2.Seq {
		t.Fatalf("applied %d, want %d", r.applied, cp2.Seq)
	}
	if !r.Ready() {
		t.Fatal("replica not ready after incremental catch-up")
	}

	// A tiered deployment runs several regional replicas off one
	// origin: each catches up from the same signed checkpoint in one
	// pass and must hold the origin's StateHash.
	t.Run("replicas=3", func(t *testing.T) {
		oh, err := o.L.StateHash()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			rep, err := NewReplica(4, o.ReplicationKey(), reg)
			if err != nil {
				t.Fatal(err)
			}
			defer rep.L.Close()
			if err := rep.CatchUp(o, cp2); err != nil {
				t.Fatalf("replica %d: %v", i, err)
			}
			if !rep.Ready() || rep.applied != cp2.Seq {
				t.Fatalf("replica %d: ready %v, applied %d, want ready at %d", i, rep.Ready(), rep.applied, cp2.Seq)
			}
			rh, err := rep.L.StateHash()
			if err != nil {
				t.Fatal(err)
			}
			if rh != oh {
				t.Fatalf("replica %d: StateHash differs from origin", i)
			}
		}
	})
}

// TestReplicaRejectsTamperedCheckpoint: a forged or bit-flipped
// checkpoint must be rejected before any state is ingested.
func TestReplicaRejectsTamperedCheckpoint(t *testing.T) {
	o, err := NewOrigin(newOriginLedger(t, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Restore(fabRecords(t, 4, 5, func(int) bool { return false })); err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(4, o.ReplicationKey(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.L.Close()
	cp, err := o.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp.State[0] ^= 0xff // claim a different state under the old signature
	if err := r.CatchUp(o, cp); err != ErrBadCheckpoint {
		t.Fatalf("got %v, want ErrBadCheckpoint", err)
	}
	if r.Ready() || r.applied != 0 {
		t.Fatal("tampered checkpoint advanced the replica")
	}
}

// TestReplicaResync: a replica whose local state has drifted (here:
// poisoned with a record the origin never logged) must detect the
// StateHash mismatch at the gate, resync from the log head, and
// converge.
func TestReplicaResync(t *testing.T) {
	reg := obs.NewRegistry()
	o, err := NewOrigin(newOriginLedger(t, 4), reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Restore(fabRecords(t, 4, 20, func(i int) bool { return i < 5 })); err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(4, o.ReplicationKey(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { r.L.Close() }()
	// Poison the replica behind the protocol's back.
	if err := r.L.RestoreRecords(fabRecords(t, 4, 1, func(int) bool { return true })); err != nil {
		t.Fatal(err)
	}
	cp, err := o.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CatchUp(o, cp); err != nil {
		t.Fatalf("resync failed: %v", err)
	}
	if !r.Ready() {
		t.Fatal("replica not ready after resync")
	}
	oh, _ := o.L.StateHash()
	rh, err := r.L.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	if oh != rh {
		t.Fatal("resync did not converge on origin state")
	}
	if got, ok := obs.Value(reg.Snapshot(), "irs_topology_replica_catchups_total",
		obs.L("tier", "regional"), obs.L("outcome", "resync")); !ok || got != 1 {
		t.Errorf("resyncs = %v (ok=%v), want 1", got, ok)
	}
}
