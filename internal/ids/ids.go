// Package ids defines the identifiers used throughout IRS.
//
// Every claimed photo is referred to by an ID that encodes both the ledger
// that holds the claim and the record within that ledger (paper §3.1:
// "hands back a unique identifier that refers to both the ledger and the
// specific photo"). The identifier is deliberately small — 128 bits — so
// that it fits inside a robust watermark with room for error correction
// (paper §3.2: "the identifier has relatively few bits").
//
// Wire and display form is unpadded base32 (Crockford alphabet) with a
// 1-byte CRC-8 check digit so that hand-typed identifiers fail loudly.
package ids

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// LedgerID names a ledger instance. Ledger IDs are assigned when a ledger
// is created and appear in the high 32 bits of every PhotoID the ledger
// issues, so any party holding a PhotoID can route a validation query to
// the right ledger without a directory lookup.
type LedgerID uint32

// PhotoID identifies one claim record: 32 bits of ledger ID followed by
// 96 bits of per-ledger record identifier. The zero value is never issued.
type PhotoID struct {
	Ledger LedgerID
	// Rec is the per-ledger record identifier. Ledgers issue these from a
	// CSPRNG so that IDs do not reveal claim ordering or volume.
	Rec [12]byte
}

// Bytes returns the 16-byte big-endian encoding of p.
func (p PhotoID) Bytes() [16]byte {
	var b [16]byte
	binary.BigEndian.PutUint32(b[:4], uint32(p.Ledger))
	copy(b[4:], p.Rec[:])
	return b
}

// FromBytes decodes a 16-byte encoding produced by Bytes.
func FromBytes(b [16]byte) PhotoID {
	var p PhotoID
	p.Ledger = LedgerID(binary.BigEndian.Uint32(b[:4]))
	copy(p.Rec[:], b[4:])
	return p
}

// New issues a fresh PhotoID under the given ledger using crypto/rand.
func New(l LedgerID) (PhotoID, error) {
	return NewFrom(l, rand.Reader)
}

// NewFrom issues a fresh PhotoID reading record entropy from r.
// Production ledgers always use New (CSPRNG identifiers, so IDs do not
// reveal claim ordering or volume); experiments inject a seeded stream
// so regenerated tables are reproducible.
func NewFrom(l LedgerID, r io.Reader) (PhotoID, error) {
	p := PhotoID{Ledger: l}
	if _, err := io.ReadFull(r, p.Rec[:]); err != nil {
		return PhotoID{}, fmt.Errorf("ids: generating record id: %w", err)
	}
	return p, nil
}

// crockford is the Crockford base32 alphabet (no I, L, O, U).
const crockford = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"

var crockfordRev = func() [256]int8 {
	var r [256]int8
	for i := range r {
		r[i] = -1
	}
	for i := 0; i < len(crockford); i++ {
		r[crockford[i]] = int8(i)
		r[strings.ToLower(crockford)[i]] = int8(i)
	}
	// Crockford decode aliases.
	for _, a := range []struct {
		c byte
		v int8
	}{{'O', 0}, {'o', 0}, {'I', 1}, {'i', 1}, {'L', 1}, {'l', 1}} {
		r[a.c] = a.v
	}
	return r
}()

// crc8 computes CRC-8/ATM (poly 0x07) over b.
func crc8(b []byte) byte {
	var c byte
	for _, x := range b {
		c ^= x
		for i := 0; i < 8; i++ {
			if c&0x80 != 0 {
				c = c<<1 ^ 0x07
			} else {
				c <<= 1
			}
		}
	}
	return c
}

// String renders p as 28 base32 characters: 17 bytes (16-byte ID + CRC-8)
// in 5-bit groups, zero-padded in the final group.
func (p PhotoID) String() string {
	raw := p.Bytes()
	buf := make([]byte, 17)
	copy(buf, raw[:])
	buf[16] = crc8(raw[:])
	var sb strings.Builder
	sb.Grow(28)
	var acc uint
	bits := 0
	for _, b := range buf {
		acc = acc<<8 | uint(b)
		bits += 8
		for bits >= 5 {
			bits -= 5
			sb.WriteByte(crockford[acc>>uint(bits)&31])
		}
	}
	if bits > 0 {
		sb.WriteByte(crockford[acc<<(5-uint(bits))&31])
	}
	return sb.String()
}

// Errors returned by Parse.
var (
	ErrBadLength   = errors.New("ids: wrong identifier length")
	ErrBadChar     = errors.New("ids: invalid identifier character")
	ErrBadChecksum = errors.New("ids: identifier checksum mismatch")
)

// Parse decodes an identifier previously produced by String. It accepts
// lower/upper case and the Crockford aliases (O→0, I/L→1) and verifies
// the trailing CRC-8.
func Parse(s string) (PhotoID, error) {
	if len(s) != 28 {
		return PhotoID{}, fmt.Errorf("%w: got %d chars, want 28", ErrBadLength, len(s))
	}
	buf := make([]byte, 0, 17)
	var acc uint
	bits := 0
	for i := 0; i < len(s); i++ {
		v := crockfordRev[s[i]]
		if v < 0 {
			return PhotoID{}, fmt.Errorf("%w: %q at position %d", ErrBadChar, s[i], i)
		}
		acc = acc<<5 | uint(v)
		bits += 5
		if bits >= 8 {
			bits -= 8
			buf = append(buf, byte(acc>>uint(bits)))
		}
	}
	if len(buf) != 17 {
		return PhotoID{}, ErrBadLength
	}
	// 28 base32 characters carry 140 bits; the identifier uses 136. The
	// 4 trailing padding bits must be zero, or two distinct strings
	// would decode to one identifier (a non-canonical encoding an
	// attacker could use to evade string-keyed blocklists).
	if bits != 4 || acc&0xf != 0 {
		return PhotoID{}, fmt.Errorf("%w: nonzero padding bits", ErrBadChecksum)
	}
	if crc8(buf[:16]) != buf[16] {
		return PhotoID{}, ErrBadChecksum
	}
	var raw [16]byte
	copy(raw[:], buf[:16])
	return FromBytes(raw), nil
}

// Key returns p in a form usable as a filter/cache key: the raw 16 bytes
// as a string. This avoids allocating the display form on hot paths.
func (p PhotoID) Key() string {
	b := p.Bytes()
	return string(b[:])
}

// Uint64Pair folds the identifier into two uint64s for use as hash input
// by the filter implementations.
func (p PhotoID) Uint64Pair() (hi, lo uint64) {
	b := p.Bytes()
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
}

// Hash64 mixes the identifier into a single well-distributed uint64.
// The ledger's shard selection and the proxy's cache/singleflight
// striping key off this value, so the mix must spread IDs evenly even
// though the high 32 bits (the ledger ID) are constant within one
// ledger. splitmix64-style finalization over both halves.
func (p PhotoID) Hash64() uint64 {
	hi, lo := p.Uint64Pair()
	x := hi*0x9e3779b97f4a7c15 + lo
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
