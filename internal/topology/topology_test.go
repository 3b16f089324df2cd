package topology

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
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
		rand.Read(r.Timestamp.Digest[:])
		r.State = ledger.StateActive
		if revoked(i) {
			r.State = ledger.StateRevoked
		}
	}
	return recs
}

// TestFilterPropagation drives the filter plane through all three
// tiers: origin snapshot → regional pull → edge pull, then a second
// epoch whose updates flow as deltas, converging on identical bits at
// every tier.
func TestFilterPropagation(t *testing.T) {
	reg := obs.NewRegistry()
	l := newOriginLedger(t, 3)
	recs := fabRecords(t, 3, 60, func(i int) bool { return i < 20 })
	if err := l.RestoreRecords(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := l.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	_, origin1, err := l.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	regional := NewFilterCache(TierRegional, 0, reg)
	edge := NewFilterCache(TierEdge, 0, reg)

	// Cold sync down the chain.
	if changed, _, err := regional.Pull(l); err != nil || !changed {
		t.Fatalf("regional cold pull: changed=%v err=%v", changed, err)
	}
	if changed, _, err := edge.Pull(regional); err != nil || !changed {
		t.Fatalf("edge cold pull: changed=%v err=%v", changed, err)
	}
	if _, f, _ := edge.Latest(); f.Hash() != origin1.Hash() {
		t.Fatal("edge filter differs from origin after cold sync")
	}

	// Steady state: pulls are no-ops.
	if changed, n, err := edge.Pull(regional); err != nil || changed || n != 0 {
		t.Fatalf("current edge pull: changed=%v bytes=%d err=%v", changed, n, err)
	}

	// Epoch 2: a few more revocations; the update should travel as a
	// small delta, not a snapshot.
	more := fabRecords(t, 3, 5, func(int) bool { return true })
	if err := l.RestoreRecords(more); err != nil {
		t.Fatal(err)
	}
	if _, err := l.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	_, origin2, err := l.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	changed, n, err := regional.Pull(l)
	if err != nil || !changed {
		t.Fatalf("regional delta pull: changed=%v err=%v", changed, err)
	}
	if full := len(origin2.Marshal()); n >= full {
		t.Errorf("incremental pull moved %d bytes, snapshot is %d", n, full)
	}
	if changed, _, err := edge.Pull(regional); err != nil || !changed {
		t.Fatalf("edge delta pull: changed=%v err=%v", changed, err)
	}
	epoch, f, _ := edge.Latest()
	if epoch != 2 {
		t.Errorf("edge epoch %d, want 2", epoch)
	}
	if f.Hash() != origin2.Hash() {
		t.Fatal("edge filter diverged after delta sync")
	}
	for _, r := range more {
		if !f.Test(ledger.FilterKey(r.ID)) {
			t.Fatal("edge filter missing a propagated revocation")
		}
	}
	// The regional tier served the edge one delta (cold snapshot + one
	// delta + one up-to-date round).
	if got, ok := obs.Value(reg.Snapshot(), "irs_topology_filter_syncs_total",
		obs.L("tier", "regional"), obs.L("kind", "delta")); !ok || got != 1 {
		t.Errorf("regional delta syncs = %v (ok=%v), want 1", got, ok)
	}
}

// TestFilterPullErrors: an empty upstream propagates ErrNoSnapshot.
func TestFilterPullErrors(t *testing.T) {
	l := newOriginLedger(t, 3)
	fc := NewFilterCache(TierRegional, 0, nil)
	if _, _, err := fc.Pull(l); err != ledger.ErrNoSnapshot {
		t.Fatalf("got %v, want ErrNoSnapshot", err)
	}
	// And an empty FilterCache serving downstream says the same.
	edge := NewFilterCache(TierEdge, 0, nil)
	if _, _, err := edge.Pull(fc); err != ledger.ErrNoSnapshot {
		t.Fatalf("got %v, want ErrNoSnapshot", err)
	}
}

// TestFilterBaseMismatchFallback: a downstream holding the right epoch
// number but the wrong bits (upstream restart) must converge via the
// snapshot fallback instead of applying a corrupting delta.
func TestFilterBaseMismatchFallback(t *testing.T) {
	l := newOriginLedger(t, 3)
	if err := l.RestoreRecords(fabRecords(t, 3, 30, func(i int) bool { return i%2 == 0 })); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.BuildSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	regional := NewFilterCache(TierRegional, 0, nil)
	if _, _, err := regional.Pull(l); err != nil {
		t.Fatal(err)
	}

	// Edge that thinks it holds the regional's latest epoch, but with
	// entirely different bits.
	epoch, goodFilter, _ := regional.Latest()
	bogus := goodFilter.Clone()
	bogus.Reset()
	bogus.Add(12345)
	edge := NewFilterCache(TierEdge, 0, nil)
	edge.Install(epoch, bogus)

	changed, _, err := edge.Pull(regional)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("mismatched edge reported itself current")
	}
	if _, f, _ := edge.Latest(); f.Hash() != goodFilter.Hash() {
		t.Fatal("edge did not converge on the upstream filter")
	}
}

// TestFilterUpstreamRestartRenumbers: a regional and an edge holding
// epochs 1–6 of one origin pull from a restarted origin that has only
// reached epoch 3. Both must serve the new origin's bits from then on —
// not keep their old epoch 6 as the newest — and the next pulls must be
// current with nothing moved.
func TestFilterUpstreamRestartRenumbers(t *testing.T) {
	old := newOriginLedger(t, 3)
	regional := NewFilterCache(TierRegional, 0, nil)
	edge := NewFilterCache(TierEdge, 0, nil)
	for i := 0; i < 6; i++ {
		if err := old.RestoreRecords(fabRecords(t, 3, 5, func(int) bool { return true })); err != nil {
			t.Fatal(err)
		}
		if _, err := old.BuildSnapshot(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := regional.Pull(old); err != nil {
			t.Fatal(err)
		}
		if _, _, err := edge.Pull(regional); err != nil {
			t.Fatal(err)
		}
	}
	if epoch, _, _ := edge.Latest(); epoch != 6 {
		t.Fatalf("edge at epoch %d before the restart, want 6", epoch)
	}

	restarted := newOriginLedger(t, 3)
	revoked := fabRecords(t, 3, 40, func(int) bool { return true })
	if err := restarted.RestoreRecords(revoked); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := restarted.BuildSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	_, want, err := restarted.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if changed, _, err := regional.Pull(restarted); err != nil || !changed {
		t.Fatalf("regional pull across the restart: changed=%v err=%v", changed, err)
	}
	if changed, _, err := edge.Pull(regional); err != nil || !changed {
		t.Fatalf("edge pull across the restart: changed=%v err=%v", changed, err)
	}
	for _, fc := range []*FilterCache{regional, edge} {
		epoch, f, _ := fc.Latest()
		if epoch != 3 || f.Hash() != want.Hash() {
			t.Fatalf("tier serves epoch %d with the restarted origin's bits = %v, want epoch 3 and true",
				epoch, f.Hash() == want.Hash())
		}
		for _, r := range revoked {
			if !f.Test(ledger.FilterKey(r.ID)) {
				t.Fatal("a revocation of the restarted origin is invisible to a tier")
			}
		}
	}
	if changed, n, err := regional.Pull(restarted); err != nil || changed || n != 0 {
		t.Errorf("regional repeat pull: changed=%v bytes=%d err=%v, want current", changed, n, err)
	}
	if changed, n, err := edge.Pull(regional); err != nil || changed || n != 0 {
		t.Errorf("edge repeat pull: changed=%v bytes=%d err=%v, want current", changed, n, err)
	}
}

// TestReplicaCatchUp: log shipping end to end — claims and revocations
// made at the origin appear in replica StatusBatch reads once a signed
// checkpoint has gated the catch-up.
func TestReplicaCatchUp(t *testing.T) {
	reg := obs.NewRegistry()
	o, err := NewOrigin(newOriginLedger(t, 4), reg)
	if err != nil {
		t.Fatal(err)
	}
	// A real claim + revoke through the Origin write surface, so every
	// write path is exercised (and logged).
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	content := sha256.Sum256([]byte("replicated photo"))
	receipt, err := o.Claim(content, pub, ed25519.Sign(priv, ledger.ClaimMsg(content)), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Apply(receipt.ID, ledger.OpRevoke, ed25519.Sign(priv, ledger.OpMsg(receipt.ID, ledger.OpRevoke, 1))); err != nil {
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
	if r.AppliedSeq() != cp.Seq {
		t.Fatalf("applied %d, want %d", r.AppliedSeq(), cp.Seq)
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
	proofs, err := r.L.StatusBatch([]ids.PhotoID{receipt.ID, bulk[0].ID, bulk[20].ID})
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
	if r.AppliedSeq() != cp2.Seq {
		t.Fatalf("applied %d, want %d", r.AppliedSeq(), cp2.Seq)
	}
	if !r.Ready() {
		t.Fatal("replica not ready after incremental catch-up")
	}
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
	if r.Ready() || r.AppliedSeq() != 0 {
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

// TestIdlePullAllocatesNothing: a tier already at its upstream's epoch
// presents the hash it stored at install and gets nothing back — no
// hashing of the held filter, no allocation — whether the upstream is
// the origin ledger or another tier.
func TestIdlePullAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted without the race detector")
	}
	origin := newOriginLedger(t, 1)
	if err := origin.RestoreRecords(fabRecords(t, 1, 64, func(i int) bool { return i%2 == 0 })); err != nil {
		t.Fatal(err)
	}
	if _, err := origin.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	regional := NewFilterCache(TierRegional, 0, nil)
	edge := NewFilterCache(TierEdge, 0, nil)
	for _, hop := range []struct {
		tier *FilterCache
		src  Syncer
	}{{regional, origin}, {edge, regional}} {
		if changed, _, err := hop.tier.Pull(hop.src); err != nil || !changed {
			t.Fatalf("first pull: changed %v, %v", changed, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if changed, _, err := hop.tier.Pull(hop.src); err != nil || changed {
				t.Fatalf("idle pull: changed %v, %v", changed, err)
			}
		})
		if allocs != 0 {
			t.Errorf("idle pull allocates %v times, want 0", allocs)
		}
	}
}
