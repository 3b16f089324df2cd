package topology

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
)

// The record plane: the origin serves every write and appends the
// resulting record to an ordered replication log; replicas tail the log
// with RestoreRecords (the bulk-ingest path that skips re-verifying
// owner signatures the origin already checked) and serve StatusBatch
// reads. Signed checkpoints — the origin's canonical StateHash at a log
// position, under a dedicated replication keypair — are the anti-entropy
// gate: a replica is only Ready while its own StateHash matches the
// last verified checkpoint, and a mismatch forces a full resync from
// the log head.

// Entry is one replicated mutation: the full record as of log position
// Seq. Replaying entries in order converges on the origin's state
// because each entry carries the complete newest version.
type Entry struct {
	Seq uint64
	Rec ledger.Record
}

// Checkpoint is the origin's signed state attestation: at log position
// Seq the canonical StateHash was State. Sig covers both under the
// origin's replication key.
type Checkpoint struct {
	Seq   uint64
	State [32]byte
	Sig   []byte
}

const checkpointMagic = "IRSCKPT1"

func checkpointMessage(seq uint64, state [32]byte) []byte {
	msg := make([]byte, 0, len(checkpointMagic)+8+32)
	msg = append(msg, checkpointMagic...)
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seq)
	msg = append(msg, s[:]...)
	return append(msg, state[:]...)
}

// Verify checks the checkpoint signature against the origin's
// replication public key.
func (cp *Checkpoint) Verify(key ed25519.PublicKey) bool {
	return ed25519.Verify(key, checkpointMessage(cp.Seq, cp.State), cp.Sig)
}

// Origin wraps the authoritative ledger with the replication log. All
// writes in a topology go through Origin so every accepted mutation is
// logged; reads can go anywhere (the point of the replicas).
type Origin struct {
	L *ledger.Ledger

	pub  ed25519.PublicKey
	priv ed25519.PrivateKey

	// mu orders ledger mutation + log append as one atomic step, and
	// excludes writes while a checkpoint hashes state — the invariant
	// that makes "StateHash at log position Seq" well defined.
	mu      sync.Mutex
	entries []Entry
	m       *replicaMetrics
}

// NewOrigin wraps a ledger, generating the replication keypair
// checkpoints are signed with. reg may be nil.
func NewOrigin(l *ledger.Ledger, reg *obs.Registry) (*Origin, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("topology: replication keygen: %w", err)
	}
	return &Origin{L: l, pub: pub, priv: priv, m: newReplicaMetrics(reg, "origin")}, nil
}

// ReplicationKey returns the public key that verifies checkpoints.
func (o *Origin) ReplicationKey() ed25519.PublicKey { return o.pub }

// appendLocked logs the current version of a record. Caller holds o.mu.
func (o *Origin) appendLocked(id ids.PhotoID) error {
	rec, err := o.L.Record(id)
	if err != nil {
		return err
	}
	o.entries = append(o.entries, Entry{Seq: uint64(len(o.entries)) + 1, Rec: rec})
	return nil
}

// Claim registers a photo at the origin and logs the accepted record.
func (o *Origin) Claim(contentHash [32]byte, pub ed25519.PublicKey, hashSig []byte, revokedAtBirth bool) (ledger.Receipt, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	r, err := o.L.Claim(contentHash, pub, hashSig, revokedAtBirth)
	if err != nil {
		return r, err
	}
	return r, o.appendLocked(r.ID)
}

// Apply performs an owner operation at the origin and logs the result.
func (o *Origin) Apply(id ids.PhotoID, op ledger.Op, sig []byte) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.L.Apply(id, op, sig); err != nil {
		return err
	}
	return o.appendLocked(id)
}

// PermanentRevoke applies the appeals outcome at the origin and logs it.
func (o *Origin) PermanentRevoke(id ids.PhotoID) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.L.PermanentRevoke(id); err != nil {
		return err
	}
	return o.appendLocked(id)
}

// Restore bulk-loads pre-formed records (the bench population path) and
// logs them for replication.
func (o *Origin) Restore(recs []ledger.Record) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.L.RestoreRecords(recs); err != nil {
		return err
	}
	for i := range recs {
		if err := o.appendLocked(recs[i].ID); err != nil {
			return err
		}
	}
	return nil
}

// Seq returns the current log position.
func (o *Origin) Seq() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return uint64(len(o.entries))
}

// EntriesSince returns a copy of the log entries with Seq > after.
func (o *Origin) EntriesSince(after uint64) []Entry {
	o.mu.Lock()
	defer o.mu.Unlock()
	if after >= uint64(len(o.entries)) {
		return nil
	}
	out := make([]Entry, uint64(len(o.entries))-after)
	copy(out, o.entries[after:])
	return out
}

// Checkpoint cuts a signed state attestation at the current log
// position. Writes are excluded while the state hashes, so the
// (Seq, StateHash) pair is exact.
func (o *Origin) Checkpoint() (Checkpoint, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	state, err := o.L.StateHash()
	if err != nil {
		return Checkpoint{}, err
	}
	seq := uint64(len(o.entries))
	cp := Checkpoint{Seq: seq, State: state}
	cp.Sig = ed25519.Sign(o.priv, checkpointMessage(seq, state))
	o.m.checkpoints.Inc()
	return cp, nil
}

// Replica errors.
var (
	ErrBadCheckpoint = errors.New("topology: checkpoint signature invalid")
	ErrDiverged      = errors.New("topology: replica diverged from origin even after full resync")
)

// Replica is a regional read copy of the origin ledger: an in-memory
// ledger under the same ID, fed from the replication log, serving
// StatusBatch. It only reports Ready after a verified checkpoint's
// StateHash matched its own — the gate the harness (and any honest
// deployment) applies before routing reads to it.
type Replica struct {
	L *ledger.Ledger

	verifyKey ed25519.PublicKey
	mu        sync.Mutex
	applied   uint64
	verified  bool
	m         *replicaMetrics
	newLedger func() (*ledger.Ledger, error)
}

// NewReplica builds an empty replica of ledger id, trusting checkpoints
// under verifyKey. reg may be nil.
func NewReplica(id ids.LedgerID, verifyKey ed25519.PublicKey, reg *obs.Registry) (*Replica, error) {
	mk := func() (*ledger.Ledger, error) { return ledger.New(ledger.Config{ID: id}) }
	l, err := mk()
	if err != nil {
		return nil, err
	}
	return &Replica{L: l, verifyKey: verifyKey, m: newReplicaMetrics(reg, "regional"), newLedger: mk}, nil
}

// AppliedSeq returns the log position the replica has ingested through.
func (r *Replica) AppliedSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// Ready reports whether the last CatchUp ended with the replica's
// StateHash matching a verified origin checkpoint.
func (r *Replica) Ready() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.verified
}

// ReplicaSource feeds CatchUp; satisfied by *Origin (and by anything
// relaying its log).
type ReplicaSource interface {
	EntriesSince(after uint64) []Entry
}

// CatchUp tails the log through cp.Seq and gates on the checkpoint:
// the signature must verify, and after ingest the replica's own
// StateHash must equal cp.State. A hash mismatch triggers one full
// resync from the log head (anti-entropy); if the hashes still differ
// the log itself is inconsistent with the checkpoint and ErrDiverged
// is returned with the replica marked not Ready.
func (r *Replica) CatchUp(src ReplicaSource, cp Checkpoint) error {
	if !cp.Verify(r.verifyKey) {
		return ErrBadCheckpoint
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.verified = false
	if err := r.ingestLocked(src, cp.Seq); err != nil {
		return err
	}
	own, err := r.L.StateHash()
	if err != nil {
		return err
	}
	if own == cp.State {
		r.verified = true
		r.m.catchups.Inc()
		return nil
	}
	// Anti-entropy: drop local state, replay the whole log.
	r.m.resyncs.Inc()
	fresh, err := r.newLedger()
	if err != nil {
		return err
	}
	if cerr := r.L.Close(); cerr != nil {
		_ = cerr // replica state is memory-only; nothing durable at risk
	}
	r.L = fresh
	r.applied = 0
	if err := r.ingestLocked(src, cp.Seq); err != nil {
		return err
	}
	own, err = r.L.StateHash()
	if err != nil {
		return err
	}
	if own != cp.State {
		return ErrDiverged
	}
	r.verified = true
	return nil
}

// ingestLocked applies log entries with applied < Seq ≤ through. A
// claim-then-revoke pair for one ID yields two log entries; since each
// entry carries the full newest version, the batch is deduped to the
// last entry per ID (RestoreRecords expects unique identifiers).
func (r *Replica) ingestLocked(src ReplicaSource, through uint64) error {
	if r.applied >= through {
		return nil
	}
	entries := src.EntriesSince(r.applied)
	byID := make(map[ids.PhotoID]ledger.Record)
	order := make([]ids.PhotoID, 0, len(entries))
	applied := r.applied
	for _, e := range entries {
		if e.Seq <= r.applied || e.Seq > through {
			continue
		}
		if _, ok := byID[e.Rec.ID]; !ok {
			order = append(order, e.Rec.ID)
		}
		byID[e.Rec.ID] = e.Rec
		applied = e.Seq
	}
	if len(order) == 0 {
		return nil
	}
	recs := make([]ledger.Record, 0, len(order))
	for _, id := range order {
		recs = append(recs, byID[id])
	}
	if err := r.L.RestoreRecords(recs); err != nil {
		return err
	}
	r.applied = applied
	r.m.entries.Add(uint64(len(recs)))
	return nil
}
