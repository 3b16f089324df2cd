// Package tsa implements an RFC 3161-style timestamp authority.
//
// The paper's ledger records "an authenticated timestamp (as in [1])"
// with every claim, and the appeals process hinges on the original owner
// presenting "a signed timestamp of the original claim" (§3.2): whoever
// holds the earlier authenticated timestamp for (a perceptual variant
// of) a photo wins the dispute.
//
// A Token binds a message digest to a time with an Ed25519 signature over
// a canonical encoding. Unlike real RFC 3161 there is no ASN.1 — the
// encoding is a fixed-layout byte string — but the trust structure is the
// same: verifiers need only the authority's public key.
package tsa

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Token is a signed statement: "digest D existed at time T", with a
// serial number unique per authority.
type Token struct {
	Serial uint64
	Time   time.Time
	Digest [32]byte
	Sig    []byte // Ed25519 signature over canonical encoding
}

// canonical returns the signed byte layout: serial ∥ unixnano ∥ digest.
func (t *Token) canonical() []byte {
	buf := make([]byte, 8+8+32)
	binary.BigEndian.PutUint64(buf[0:], t.Serial)
	binary.BigEndian.PutUint64(buf[8:], uint64(t.Time.UnixNano()))
	copy(buf[16:], t.Digest[:])
	return buf
}

// marshaledSize is the exact encoded size of a signed token.
const marshaledSize = 8 + 8 + 32 + ed25519.SignatureSize

// Marshal encodes the token for wire transport.
func (t *Token) Marshal() []byte {
	return t.AppendMarshal(make([]byte, 0, marshaledSize))
}

// AppendMarshal appends the encoding Marshal returns to dst and returns
// the extended slice, so a record encoder can place the token inside a
// larger buffer without an intermediate copy.
func (t *Token) AppendMarshal(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, t.Serial)
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.Time.UnixNano()))
	dst = append(dst, t.Digest[:]...)
	return append(dst, t.Sig...)
}

// Unmarshal decodes a token produced by Marshal.
func Unmarshal(b []byte) (*Token, error) {
	if len(b) != marshaledSize {
		return nil, fmt.Errorf("tsa: token length %d, want %d", len(b), marshaledSize)
	}
	t := &Token{
		Serial: binary.BigEndian.Uint64(b[0:]),
		Time:   time.Unix(0, int64(binary.BigEndian.Uint64(b[8:]))).UTC(),
	}
	copy(t.Digest[:], b[16:48])
	t.Sig = append([]byte(nil), b[48:]...)
	return t, nil
}

// Authority issues timestamp tokens. It is safe for concurrent use.
type Authority struct {
	priv   ed25519.PrivateKey
	pub    ed25519.PublicKey
	serial atomic.Uint64
	// now is the clock; replaceable for tests and simulation.
	now func() time.Time
}

// NewFromKey creates an authority that signs with priv, reads time
// from now, and numbers its tokens from last+1. A ledger that reopens
// its directory passes its stored key and the largest serial it holds,
// so every token it issued before still verifies and no serial repeats
// (RFC 3161 §2.4.2 requires them unique across all of an authority's
// tokens); a fresh authority passes a fresh key and zero.
func NewFromKey(priv ed25519.PrivateKey, now func() time.Time, last uint64) *Authority {
	a := &Authority{priv: priv, pub: priv.Public().(ed25519.PublicKey), now: now}
	a.serial.Store(last)
	return a
}

// PublicKey returns the verification key.
func (a *Authority) PublicKey() ed25519.PublicKey { return a.pub }

// Stamp issues a token over the given digest.
func (a *Authority) Stamp(digest [32]byte) *Token {
	t := &Token{
		Serial: a.serial.Add(1),
		Time:   a.now().UTC(),
		Digest: digest,
	}
	t.Sig = ed25519.Sign(a.priv, t.canonical())
	return t
}

// ErrBadSignature is Verify's error for a token its key did not sign.
var ErrBadSignature = errors.New("tsa: signature verification failed")

// Verify checks a token's signature against the authority public key.
func Verify(pub ed25519.PublicKey, t *Token) error {
	if !ed25519.Verify(pub, t.canonical(), t.Sig) {
		return ErrBadSignature
	}
	return nil
}

// Earlier reports whether token a precedes token b, the comparison the
// appeals process performs between the complainant's claim timestamp and
// the contested claim's. sameAuthority says both tokens were issued by
// one authority: only then does the serial number break an exact time
// tie. Each authority counts its serials from 1, so across two of them
// the numbers order nothing, and an exact tie is neither earlier.
func Earlier(a, b *Token, sameAuthority bool) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	return sameAuthority && a.Serial < b.Serial
}
