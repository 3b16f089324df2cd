package ledger

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"irs/internal/ids"
)

// StatusProof is the ledger's signed answer to a validation query — the
// OCSP-like attestation that aggregators forward to viewers (§3.2: the
// aggregator "includes in metadata cryptographic proof that it has
// recently verified the non-revoked status of the photo"; the proof it
// forwards is this one).
type StatusProof struct {
	ID       ids.PhotoID
	State    State
	IssuedAt time.Time
	Sig      []byte
}

func (p *StatusProof) canonical() []byte {
	buf := make([]byte, 0, 16+1+8+16)
	buf = append(buf, "irs-status-v1:"...)
	b := p.ID.Bytes()
	buf = append(buf, b[:]...)
	buf = append(buf, byte(p.State))
	var ts [8]byte
	binary.BigEndian.PutUint64(ts[:], uint64(p.IssuedAt.UnixNano()))
	buf = append(buf, ts[:]...)
	return buf
}

// proofQuantum is the granularity of IssuedAt. Stamping whole seconds
// makes the signed message a pure function of (id, state, second), so
// every query of one second can share one signature (proofMemo); it is
// 0.3 % of the 5-minute cache TTL that already bounds how stale a
// forwarded proof may be.
const proofQuantum = time.Second

// memoMaxEntries caps the signatures a ledger keeps for the current
// second, summed over its shards. Past it, proofs are signed as always
// and not stored.
const memoMaxEntries = 1 << 16

// proofTime is the instant the proofs of one query are stamped with.
func (l *Ledger) proofTime() time.Time {
	return l.clock().UTC().Truncate(proofQuantum)
}

// memoKey is, with the memo's second, exactly the signed message.
type memoKey struct {
	id    ids.PhotoID
	state State
}

// proofMemo holds one shard's share of the signatures already made for
// the current second. Ed25519 is deterministic, so a hit is byte for
// byte what a fresh Sign returns. The state half of the key is read
// from the record by every query; a state change therefore misses by
// itself and nothing needs to invalidate an entry. Entries of another
// second are dropped wholesale by the first query that finds them.
type proofMemo struct {
	mu   sync.Mutex
	at   time.Time
	sigs map[memoKey][ed25519.SignatureSize]byte
	max  int
}

// get returns the proof for (id, st, at) if the memo holds its
// signature and nil otherwise, first dropping entries of any other
// second. The signature is copied: callers own the proof they are
// given. The caller holds m.mu.
func (m *proofMemo) get(id ids.PhotoID, st State, at time.Time) *StatusProof {
	if !m.at.Equal(at) {
		m.at = at
		clear(m.sigs)
		return nil
	}
	sig, ok := m.sigs[memoKey{id, st}]
	if !ok {
		return nil
	}
	return &StatusProof{ID: id, State: st, IssuedAt: at, Sig: append([]byte(nil), sig[:]...)}
}

// put stores a freshly signed proof's signature, unless the memo is
// full or has moved on to another second. It takes m.mu itself.
func (m *proofMemo) put(p *StatusProof) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.at.Equal(p.IssuedAt) || len(m.sigs) >= m.max {
		return
	}
	if m.sigs == nil {
		m.sigs = make(map[memoKey][ed25519.SignatureSize]byte)
	}
	m.sigs[memoKey{p.ID, p.State}] = [ed25519.SignatureSize]byte(p.Sig)
}

// signStatusAt is the one step a memo miss takes, for Status and
// StatusBatch alike: it builds and signs the proof of (id, st) at an
// explicit instant and leaves the signature in the memo of sh, the
// shard of id.
func (l *Ledger) signStatusAt(sh *shard, id ids.PhotoID, st State, at time.Time) *StatusProof {
	p := &StatusProof{ID: id, State: st, IssuedAt: at}
	p.Sig = ed25519.Sign(l.signKey, p.canonical())
	sh.memo.put(p)
	return p
}

// Proof verification errors.
var (
	ErrProofSignature = errors.New("ledger: status proof signature invalid")
	ErrProofStale     = errors.New("ledger: status proof too old")
)

// VerifyProof checks a proof's signature against the ledger signing key
// and, if maxAge > 0, its freshness relative to now.
func VerifyProof(pub ed25519.PublicKey, p *StatusProof, now time.Time, maxAge time.Duration) error {
	if !ed25519.Verify(pub, p.canonical(), p.Sig) {
		return ErrProofSignature
	}
	if maxAge > 0 && now.Sub(p.IssuedAt) > maxAge {
		return ErrProofStale
	}
	return nil
}

// Displayable reports whether a proof authorizes showing the photo:
// only active claims may be displayed, saved, or reshared (§3.1,
// Validating). Unknown claims are the caller's policy decision — the
// aggregator rejects or custodially claims them — so Displayable is
// false for them too.
func (p *StatusProof) Displayable() bool { return p.State == StateActive }

// Marshal encodes the proof for wire transport.
func (p *StatusProof) Marshal() []byte {
	return p.AppendMarshal(make([]byte, 0, MarshaledProofSize))
}

// MarshaledProofSize is the exact encoded size of a signed proof:
// magic + id + state + timestamp + Ed25519 signature.
const MarshaledProofSize = 14 + 16 + 1 + 8 + ed25519.SignatureSize

// AppendMarshal appends the wire encoding of the proof to dst and
// returns the extended slice — the allocation-free form of Marshal for
// the binary serving path, which encodes whole proof batches into one
// pooled buffer.
func (p *StatusProof) AppendMarshal(dst []byte) []byte {
	dst = append(dst, "irs-status-v1:"...)
	b := p.ID.Bytes()
	dst = append(dst, b[:]...)
	dst = append(dst, byte(p.State))
	var ts [8]byte
	binary.BigEndian.PutUint64(ts[:], uint64(p.IssuedAt.UnixNano()))
	dst = append(dst, ts[:]...)
	return append(dst, p.Sig...)
}

// UnmarshalProof decodes a proof produced by Marshal.
func UnmarshalProof(b []byte) (*StatusProof, error) {
	const hdr = 14 + 16 + 1 + 8
	if len(b) != hdr+ed25519.SignatureSize {
		return nil, errors.New("ledger: bad status proof length")
	}
	if string(b[:14]) != "irs-status-v1:" {
		return nil, errors.New("ledger: bad status proof magic")
	}
	var raw [16]byte
	copy(raw[:], b[14:30])
	p := &StatusProof{
		ID:       ids.FromBytes(raw),
		State:    State(b[30]),
		IssuedAt: time.Unix(0, int64(binary.BigEndian.Uint64(b[31:39]))).UTC(),
		Sig:      append([]byte(nil), b[hdr:]...),
	}
	return p, nil
}
