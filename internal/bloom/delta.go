package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Delta encoding of Bloom filter updates.
//
// Paper §4.4: "We assume these will be updated regularly (perhaps
// hourly), and transferred with a delta encoding such that the update
// traffic will be low." Because claims set a handful of bits per key and
// hourly churn is a tiny fraction of the population, consecutive
// snapshots differ in few bits. The delta lists the *flipped bit
// positions* as varint-encoded gaps — typically 1–3 bytes per flipped
// bit versus the full snapshot's m/8 bytes. XOR semantics (flip, not
// set) let the same encoding carry rebuilds that clear bits.
//
// A frame (magic IRSBD2) carries the SHA-256 of the base filter and of
// the expected result beside the gap list. Parameters alone cannot
// vouch for a base: a delta applied to a filter with the right m and k
// but the wrong *contents* (a restarted ledger renumbering its epochs,
// a proxy that missed an update) would corrupt it silently, and a
// corrupted revocation filter means false negatives — revoked photos
// served as "definitely not revoked". So Apply refuses a wrong base up
// front (ErrBaseMismatch) and verifies the result hash after flipping:
// a delta either reproduces the target exactly or fails loudly.
//
// Deltas are not always smaller than snapshots: a rebuild after a mass
// takedown can flip more bits than the full bit array carries. Update
// picks whichever encoding is smaller; ApplyUpdate dispatches on the
// frame magic. Callers of the sync protocol therefore never pay more
// than one snapshot transfer, whatever the churn.

const deltaMagic = "IRSBD2"

// ErrBaseMismatch is returned when a delta's base hash does not match
// the filter it is being applied to: right parameters, wrong contents.
// Callers fall back to a full snapshot pull.
var ErrBaseMismatch = errors.New("bloom: delta base filter mismatch")

// ErrResultMismatch is returned when a delta applied cleanly but the
// resulting bits do not hash to the encoded expectation (a corrupted or
// forged frame). The filter passed to Apply must be discarded.
var ErrResultMismatch = errors.New("bloom: delta result hash mismatch")

// encodeGaps appends the varint-encoded flipped-bit positions between
// prev and next: a uvarint count followed by uvarint gaps between
// successive positions (first gap is position+1).
func encodeGaps(out []byte, prev, next *Filter) []byte {
	var varBuf [binary.MaxVarintLen64]byte
	body := make([]byte, 0, 256)
	var count uint64
	last := int64(-1)
	for i := range prev.bits {
		x := prev.bits[i] ^ next.bits[i]
		for x != 0 {
			b := bits.TrailingZeros64(x)
			x &= x - 1
			pos := int64(i)*64 + int64(b)
			n := binary.PutUvarint(varBuf[:], uint64(pos-last))
			body = append(body, varBuf[:n]...)
			last = pos
			count++
		}
	}
	n := binary.PutUvarint(varBuf[:], count)
	out = append(out, varBuf[:n]...)
	return append(out, body...)
}

// putDeltaHeader appends the 28-byte parameter header:
// m ∥ k ∥ prevN ∥ nextN.
func putDeltaHeader(out []byte, prev, next *Filter) []byte {
	var hdr [28]byte
	binary.BigEndian.PutUint64(hdr[0:], prev.m)
	binary.BigEndian.PutUint32(hdr[8:], uint32(prev.k))
	binary.BigEndian.PutUint64(hdr[12:], prev.n)
	binary.BigEndian.PutUint64(hdr[20:], next.n)
	return append(out, hdr[:]...)
}

// DeltaWithBase computes the update that transforms prev into next,
// carrying the SHA-256 of both endpoints so Apply can reject a wrong
// base (ErrBaseMismatch) instead of silently corrupting the filter.
func DeltaWithBase(prev, next *Filter) ([]byte, error) {
	if prev.m != next.m || prev.k != next.k {
		return nil, ErrMismatch
	}
	out := make([]byte, 0, 128)
	out = append(out, deltaMagic...)
	out = putDeltaHeader(out, prev, next)
	baseHash := prev.Hash()
	nextHash := next.Hash()
	out = append(out, baseHash[:]...)
	out = append(out, nextHash[:]...)
	return encodeGaps(out, prev, next), nil
}

// Frame layout: magic(6) ∥ header(28) ∥ baseHash(32) ∥ nextHash(32) ∥ gaps.
const deltaHeaderLen = 6 + 28 + 32 + 32

// Apply mutates f by the given delta. f must be the exact base the
// delta was computed from: its hash is checked before any bit flips
// (ErrBaseMismatch) and the result hash after (ErrResultMismatch — f
// must then be discarded). Snapshot ordering is the caller's
// responsibility; ledgers number snapshots so proxies apply them in
// order.
func Apply(f *Filter, delta []byte) error {
	if len(delta) < deltaHeaderLen || string(delta[:6]) != deltaMagic {
		return errors.New("bloom: bad delta encoding")
	}
	m := binary.BigEndian.Uint64(delta[6:])
	k := int(binary.BigEndian.Uint32(delta[14:]))
	nextN := binary.BigEndian.Uint64(delta[26:])
	if m != f.m || k != f.k {
		return ErrMismatch
	}
	if got := f.Hash(); string(got[:]) != string(delta[34:66]) {
		return ErrBaseMismatch
	}
	var wantNext [32]byte
	copy(wantNext[:], delta[66:98])
	body := delta[deltaHeaderLen:]
	count, used := binary.Uvarint(body)
	if used <= 0 {
		return errors.New("bloom: bad delta count")
	}
	body = body[used:]
	pos := int64(-1)
	for j := uint64(0); j < count; j++ {
		gap, used := binary.Uvarint(body)
		if used <= 0 {
			return fmt.Errorf("bloom: truncated delta at entry %d", j)
		}
		body = body[used:]
		pos += int64(gap)
		if pos < 0 || uint64(pos) >= f.m {
			return fmt.Errorf("bloom: delta bit position %d out of range", pos)
		}
		f.bits[pos/64] ^= 1 << (uint64(pos) % 64)
	}
	if len(body) != 0 {
		return errors.New("bloom: trailing delta bytes")
	}
	f.n = nextN
	if got := f.Hash(); got != wantNext {
		return ErrResultMismatch
	}
	return nil
}

// Update encodes the cheaper of a delta and a full snapshot that
// brings a holder of prev to next — the size escape hatch for
// high-churn rebuilds, where the varint gap list can exceed the bit
// array it describes. A nil prev or a parameter change always yields a
// snapshot. The result feeds ApplyUpdate.
func Update(prev, next *Filter) ([]byte, error) {
	if next == nil {
		return nil, errors.New("bloom: nil next filter")
	}
	snap := next.Marshal()
	if prev == nil || prev.m != next.m || prev.k != next.k {
		return snap, nil
	}
	delta, err := DeltaWithBase(prev, next)
	if err != nil {
		return nil, err
	}
	if len(delta) < len(snap) {
		return delta, nil
	}
	return snap, nil
}

// IsSnapshot reports whether an Update payload is a full snapshot frame
// rather than a delta.
func IsSnapshot(payload []byte) bool {
	return len(payload) >= len(filterMagic) && string(payload[:len(filterMagic)]) == filterMagic
}

// ApplyUpdate resolves an Update payload against the holder's base
// filter, returning the new filter. Snapshot payloads ignore base (nil
// is fine); delta payloads are applied to a clone, so base is never
// mutated and an ErrBaseMismatch/ErrResultMismatch leaves the caller's
// state intact for a snapshot re-pull.
func ApplyUpdate(base *Filter, payload []byte) (*Filter, error) {
	if IsSnapshot(payload) {
		return Unmarshal(payload)
	}
	if base == nil {
		return nil, errors.New("bloom: delta update without base filter")
	}
	next := base.Clone()
	if err := Apply(next, payload); err != nil {
		return nil, err
	}
	return next, nil
}
