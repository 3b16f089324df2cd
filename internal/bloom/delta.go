package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
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
// served as "definitely not revoked". So apply refuses a wrong base up
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
// forged frame). The filter passed to apply must be discarded.
var ErrResultMismatch = errors.New("bloom: delta result hash mismatch")

// Frame layout: magic(6) ∥ header(28) ∥ baseHash(32) ∥ nextHash(32) ∥ gaps.
const deltaHeaderLen = 6 + 28 + 32 + 32

// snapshotLen is the size of the IRSBF1 frame of a filter of words bit
// words: magic(6) ∥ m ∥ k ∥ n (20) ∥ words. Update weighs a delta
// against it without marshalling either.
func snapshotLen(words int) int { return 6 + 20 + 8*words }

// diffFlips yields, ascending, the bit positions where a and b differ;
// a nil b stands for all zeros, so diffFlips(x, nil) yields x's set
// bits.
func diffFlips(a, b []uint64) iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		for i, x := range a {
			if b != nil {
				x ^= b[i]
			}
			for x != 0 {
				if !yield(uint64(i)*64 + uint64(bits.TrailingZeros64(x))) {
					return
				}
				x &= x - 1
			}
		}
	}
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// gapsLen returns the number of ascending flips and the size of their
// gap list, count prefix included: the arithmetic that weighs a delta
// against a snapshot before either is encoded.
func gapsLen(flips iter.Seq[uint64]) (count, size int) {
	var next uint64 // one past the previous position
	for pos := range flips {
		size += uvarintLen(pos + 1 - next)
		next = pos + 1
		count++
	}
	return count, size + uvarintLen(uint64(count))
}

// appendGaps appends the gap list of count ascending flips: a uvarint
// count followed by uvarint gaps between successive positions (the
// first gap is position+1).
func appendGaps(out []byte, count int, flips iter.Seq[uint64]) []byte {
	out = binary.AppendUvarint(out, uint64(count))
	var next uint64
	for pos := range flips {
		out = binary.AppendUvarint(out, pos+1-next)
		next = pos + 1
	}
	return out
}

// frameFlips yields the flipped positions of a well-formed frame's gap
// list, one this package encoded.
func frameFlips(frame []byte) iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		body := frame[deltaHeaderLen:]
		count, used := binary.Uvarint(body)
		body = body[used:]
		var next uint64
		for ; count > 0; count-- {
			gap, used := binary.Uvarint(body)
			body = body[used:]
			next += gap
			if !yield(next - 1) {
				return
			}
		}
	}
}

// deltaEnds names the two endpoints of a delta frame: parameters, the
// populations and hashes of base and result.
type deltaEnds struct {
	m                  uint64
	k                  int
	prevN, nextN       uint64
	prevHash, nextHash []byte
}

// appendFrame appends a whole IRSBD2 frame for count ascending flips.
func (d deltaEnds) appendFrame(out []byte, count int, flips iter.Seq[uint64]) []byte {
	out = append(out, deltaMagic...)
	out = binary.BigEndian.AppendUint64(out, d.m)
	out = binary.BigEndian.AppendUint32(out, uint32(d.k))
	out = binary.BigEndian.AppendUint64(out, d.prevN)
	out = binary.BigEndian.AppendUint64(out, d.nextN)
	out = append(out, d.prevHash...)
	out = append(out, d.nextHash...)
	return appendGaps(out, count, flips)
}

// frame encodes the IRSBD2 frame for flips, or returns nil when a
// snapshot of the result (words bit words) is no larger: Update's size
// rule, decided by arithmetic before anything is encoded.
func (d deltaEnds) frame(words int, flips iter.Seq[uint64]) []byte {
	count, size := gapsLen(flips)
	if deltaHeaderLen+size >= snapshotLen(words) {
		return nil
	}
	return d.appendFrame(make([]byte, 0, deltaHeaderLen+size), count, flips)
}

// ends returns the endpoints of the delta from prev to next.
func ends(prev, next *Filter) deltaEnds {
	ph, nh := prev.Hash(), next.Hash()
	return deltaEnds{m: prev.m, k: prev.k, prevN: prev.n, nextN: next.n, prevHash: ph[:], nextHash: nh[:]}
}

// DeltaWithBase computes the update that transforms prev into next,
// carrying the SHA-256 of both endpoints so apply can reject a wrong
// base (ErrBaseMismatch) instead of silently corrupting the filter.
func DeltaWithBase(prev, next *Filter) ([]byte, error) {
	if prev.m != next.m || prev.k != next.k {
		return nil, ErrMismatch
	}
	flips := diffFlips(prev.bits, next.bits)
	count, size := gapsLen(flips)
	return ends(prev, next).appendFrame(make([]byte, 0, deltaHeaderLen+size), count, flips), nil
}

// apply mutates f by the given delta. f must be the exact base the
// delta was computed from: its hash (baseHash, or computed here when
// nil) is checked before any bit flips (ErrBaseMismatch) and the result
// hash after (ErrResultMismatch — f must then be discarded). It returns
// the result's hash, so the result check is the only hash a holder
// computes per epoch.
func apply(f *Filter, baseHash []byte, delta []byte) ([32]byte, error) {
	var got [32]byte
	if len(delta) < deltaHeaderLen || string(delta[:6]) != deltaMagic {
		return got, errors.New("bloom: bad delta encoding")
	}
	m := binary.BigEndian.Uint64(delta[6:])
	k := int(binary.BigEndian.Uint32(delta[14:]))
	nextN := binary.BigEndian.Uint64(delta[26:])
	if m != f.m || k != f.k {
		return got, ErrMismatch
	}
	if baseHash == nil {
		got = f.Hash()
		baseHash = got[:]
	}
	if string(baseHash) != string(delta[34:66]) {
		return got, ErrBaseMismatch
	}
	body := delta[deltaHeaderLen:]
	count, used := binary.Uvarint(body)
	if used <= 0 {
		return got, errors.New("bloom: bad delta count")
	}
	body = body[used:]
	pos := int64(-1)
	for j := uint64(0); j < count; j++ {
		gap, used := binary.Uvarint(body)
		if used <= 0 {
			return got, fmt.Errorf("bloom: truncated delta at entry %d", j)
		}
		body = body[used:]
		pos += int64(gap)
		if pos < 0 || uint64(pos) >= f.m {
			return got, fmt.Errorf("bloom: delta bit position %d out of range", pos)
		}
		f.bits[pos/64] ^= 1 << (uint64(pos) % 64)
	}
	if len(body) != 0 {
		return got, errors.New("bloom: trailing delta bytes")
	}
	f.n = nextN
	if got = f.Hash(); string(got[:]) != string(delta[66:98]) {
		return got, ErrResultMismatch
	}
	return got, nil
}

// Update encodes the cheaper of a delta and a full snapshot that
// brings a holder of prev to next — the size escape hatch for
// high-churn rebuilds, where the varint gap list can exceed the bit
// array it describes. A nil prev or a parameter change always yields a
// snapshot. The two sizes are compared by arithmetic, so only the
// payload returned is encoded (and the endpoints hashed only for a
// delta). The result feeds ApplyUpdate.
func Update(prev, next *Filter) ([]byte, error) {
	if next == nil {
		return nil, errors.New("bloom: nil next filter")
	}
	if prev == nil || prev.m != next.m || prev.k != next.k {
		return next.Marshal(), nil
	}
	flips := diffFlips(prev.bits, next.bits)
	count, size := gapsLen(flips)
	if deltaHeaderLen+size >= snapshotLen(len(next.bits)) {
		return next.Marshal(), nil
	}
	return ends(prev, next).appendFrame(make([]byte, 0, deltaHeaderLen+size), count, flips), nil
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
	next, _, err := applyUpdate(base, nil, payload)
	return next, err
}

// applyUpdate is ApplyUpdate for a holder that knows its base's hash
// (baseHash; nil: hash base here), returning the new filter's hash too.
func applyUpdate(base *Filter, baseHash []byte, payload []byte) (*Filter, [32]byte, error) {
	if IsSnapshot(payload) {
		next, err := Unmarshal(payload)
		if err != nil {
			return nil, [32]byte{}, err
		}
		return next, next.Hash(), nil
	}
	if base == nil {
		return nil, [32]byte{}, errors.New("bloom: delta update without base filter")
	}
	next := base.Clone()
	h, err := apply(next, baseHash, payload)
	if err != nil {
		return nil, h, err
	}
	return next, h, nil
}
