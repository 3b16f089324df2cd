package ledger

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
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
	Sig      [ed25519.SignatureSize]byte
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

// NewProofBatch returns n zero proofs in one backing array — the shape
// of a StatusBatch answer at every layer: two allocations a batch, not
// two a proof. Whoever is handed the batch owns the array.
func NewProofBatch(n int) []*StatusProof {
	slab := make([]StatusProof, n)
	proofs := make([]*StatusProof, n)
	for i := range slab {
		proofs[i] = &slab[i]
	}
	return proofs
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

// get completes p — ID, State and IssuedAt, the signed message, set by
// the caller — with a copy of its signature if the memo holds it, first
// dropping entries of any other second. The caller holds m.mu.
func (m *proofMemo) get(p *StatusProof) bool {
	if !m.at.Equal(p.IssuedAt) {
		m.at = p.IssuedAt
		clear(m.sigs)
		return false
	}
	sig, ok := m.sigs[memoKey{p.ID, p.State}]
	if ok {
		p.Sig = sig
	}
	return ok
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
	m.sigs[memoKey{p.ID, p.State}] = p.Sig
}

// sign is the one step a memo miss takes, for Status and StatusBatch
// alike: it signs p — ID, State and IssuedAt set by the caller — in
// place and leaves the signature in the memo of sh, the shard of p.ID.
func (l *Ledger) sign(sh *shard, p *StatusProof) {
	copy(p.Sig[:], ed25519.Sign(l.signKey, p.canonical()))
	sh.memo.put(p)
}

// Proof verification errors.
var (
	ErrProofSignature = errors.New("ledger: status proof signature invalid")
	ErrProofStale     = errors.New("ledger: status proof too old")
)

// VerifyProof checks a proof's signature against the ledger signing key
// and, if maxAge > 0, its freshness relative to now.
func VerifyProof(pub ed25519.PublicKey, p *StatusProof, now time.Time, maxAge time.Duration) error {
	if !ed25519.Verify(pub, p.canonical(), p.Sig[:]) {
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
	return append(dst, p.Sig[:]...)
}

// UnmarshalProof decodes a proof produced by Marshal.
func UnmarshalProof(b []byte) (*StatusProof, error) {
	p := new(StatusProof)
	if err := p.Unmarshal(b); err != nil {
		return nil, err
	}
	return p, nil
}

// Unmarshal decodes a proof produced by Marshal into p, retaining
// nothing of b. It is the one decode point, so a state byte that names
// no state is refused here and reaches no cache or viewer. On error p
// is unchanged.
func (p *StatusProof) Unmarshal(b []byte) error {
	const hdr = MarshaledProofSize - ed25519.SignatureSize
	if len(b) != MarshaledProofSize {
		return errors.New("ledger: bad status proof length")
	}
	if string(b[:14]) != "irs-status-v1:" {
		return errors.New("ledger: bad status proof magic")
	}
	if !State(b[30]).Defined() {
		return fmt.Errorf("ledger: bad status proof state %d", b[30])
	}
	p.ID = ids.FromBytes([16]byte(b[14:30]))
	p.State = State(b[30])
	p.IssuedAt = time.Unix(0, int64(binary.BigEndian.Uint64(b[31:hdr]))).UTC()
	p.Sig = [ed25519.SignatureSize]byte(b[hdr:])
	return nil
}
