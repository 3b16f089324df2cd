package phash

// Keyed band mixing for the multi-index Hamming search.
//
// The band decomposition in bands.go is public and fixed: band i of m
// always covers the same bit positions. An attacker who knows the
// layout can mass-produce signatures that agree on one band value per
// hash kind while staying far apart in total Hamming distance — every
// such upload lands in the same (kind, band) bucket, and every probe
// sharing those band values marks the whole corpus as candidates. That
// is the bucket-density DoS the adversarial suite mounts: lookups
// degrade from a handful of exact verifications to O(corpus).
//
// BandMixer closes the precomputation hole by applying a keyed
// isometry of the Hamming cube before banding. The distance-preserving
// bijections of {0,1}⁶⁴ are exactly the bit-position permutations
// composed with XOR translations, so the mixer is the maximal keying
// that keeps the pigeonhole guarantee intact: for any key,
//
//	Distance(Mix(a), Mix(b)) == Distance(a, b)
//
// and therefore two hashes within threshold still agree to within the
// per-band radius on at least one *mixed* band. Lookup results stay
// identical to the linear scan for every key; only the bucket
// assignment — which the attacker would need to predict — changes.
// Crafting a colliding corpus now requires knowing the key, which the
// index draws fresh (crypto/rand) at construction.
//
// The permutation is compiled into eight 256-entry tables (one per
// input byte, ~16KB), so Mix is eight loads, seven ORs and one XOR —
// cheap enough to apply per entry at insert and per probe hash at
// lookup.

import (
	"crypto/rand"
	"encoding/binary"

	"irs/internal/parallel"
)

// BandMixer is a keyed Hamming-distance-preserving bijection of 64-bit
// hashes: a bit-position permutation plus an XOR translation, both
// derived deterministically from the key. The nil mixer is the
// identity, so unkeyed code paths pay nothing.
type BandMixer struct {
	key  uint64
	mask uint64
	tab  [8][256]uint64
}

// NewBandMixer derives a mixer from key. The same key always yields
// the same mixer, so persisted indexes or differential tests can pin
// the permutation.
func NewBandMixer(key uint64) *BandMixer {
	m := &BandMixer{key: key}
	// The SplitMix64 stream seeded with key stretches it into the
	// permutation: each draw finalizes the state, then advances it.
	st := key
	draw := func() uint64 {
		v := parallel.SplitMix64(st)
		st += 0x9e3779b97f4a7c15
		return v
	}
	// Fisher–Yates over the 64 bit positions, driven by that stream.
	// Modulo bias over j+1 ≤ 64 is ≤ 2⁻⁵⁸ — irrelevant here; any fixed
	// permutation family works as long as it is keyed.
	var perm [64]uint8
	for i := range perm {
		perm[i] = uint8(i)
	}
	for j := 63; j > 0; j-- {
		k := int(draw() % uint64(j+1))
		perm[j], perm[k] = perm[k], perm[j]
	}
	m.mask = draw()
	for byteIdx := 0; byteIdx < 8; byteIdx++ {
		for v := 0; v < 256; v++ {
			var out uint64
			for bit := 0; bit < 8; bit++ {
				if v>>uint(bit)&1 == 1 {
					out |= 1 << perm[byteIdx*8+bit]
				}
			}
			m.tab[byteIdx][v] = out
		}
	}
	return m
}

// NewRandomBandMixer draws a fresh key from crypto/rand — the secure
// default for a serving index, where the key must be unpredictable to
// uploaders.
func NewRandomBandMixer() *BandMixer {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; refusing to start
		// beats silently running unkeyed.
		panic("phash: crypto/rand unavailable: " + err.Error())
	}
	return NewBandMixer(binary.LittleEndian.Uint64(b[:]))
}

// Key returns the key the mixer was derived from (0 for nil).
func (m *BandMixer) Key() uint64 {
	if m == nil {
		return 0
	}
	return m.key
}

// Mix applies the keyed isometry. The nil receiver is the identity.
func (m *BandMixer) Mix(h Hash) uint64 {
	if m == nil {
		return uint64(h)
	}
	x := uint64(h)
	p := m.tab[0][x&0xff] |
		m.tab[1][x>>8&0xff] |
		m.tab[2][x>>16&0xff] |
		m.tab[3][x>>24&0xff] |
		m.tab[4][x>>32&0xff] |
		m.tab[5][x>>40&0xff] |
		m.tab[6][x>>48&0xff] |
		m.tab[7][x>>56&0xff]
	return p ^ m.mask
}

// MixSignature mixes all three hashes of a signature into the banding
// domain. The nil receiver is the identity.
func (m *BandMixer) MixSignature(sig Signature) [3]uint64 {
	return [3]uint64{m.Mix(sig.A), m.Mix(sig.D), m.Mix(sig.P)}
}
