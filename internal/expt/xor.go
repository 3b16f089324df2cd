package expt

import (
	"errors"
	"fmt"
	"math/bits"

	"irs/internal/parallel"
)

// xor8 is the xor filter of Graf & Lemire (ACM JEA 2020), one of the
// "recent advances" the paper cites as a drop-in improvement over
// standard Bloom filters [15]. It is a static structure: built once from
// the full key set, queried immutably. It stores 8-bit fingerprints in
// an array of 1.23·n + 32 slots split into three equal blocks; each key
// maps to one slot per block and is present iff the XOR of its three
// slots equals its fingerprint. The false-positive rate is a fixed
// 1/256 ≈ 0.39% at ~9.84 bits per key.
//
// In IRS terms: a ledger that republishes its filter hourly anyway can
// afford a static structure, buying a 5× lower false-hit rate than the
// paper's 8-bits/key Bloom sizing at nearly the same space. The ablation
// benchmark quantifies this trade.
type xor8 struct {
	seed         uint64
	blockLength  uint32
	fingerprints []uint8
}

// fingerprint derives the 8-bit fingerprint of a hashed key.
func xorFingerprint(h uint64) uint8 {
	v := uint8(h ^ (h >> 32))
	// Zero fingerprints make absent keys with zeroed slots match; avoid.
	if v == 0 {
		v = 0xa5
	}
	return v
}

// reduce maps a 32-bit hash onto [0, n) without modulo bias.
func reduce(h uint32, n uint32) uint32 {
	return uint32(uint64(h) * uint64(n) >> 32)
}

// xorHashes returns the three slot indices (one per block) for a key
// under the given seed. Following Graf & Lemire, the three values are
// 32-bit windows of one 64-bit hash taken at rotations 0, 21 and 42, so
// each window carries full entropy.
func xorHashes(key, seed uint64, blockLength uint32) (h0, h1, h2 uint32) {
	h := parallel.SplitMix64(key ^ seed)
	r0 := uint32(h)
	r1 := uint32(bits.RotateLeft64(h, 21))
	r2 := uint32(bits.RotateLeft64(h, 42))
	h0 = reduce(r0, blockLength)
	h1 = reduce(r1, blockLength) + blockLength
	h2 = reduce(r2, blockLength) + 2*blockLength
	return
}

// errBuildFailed is returned when peeling fails repeatedly, which for
// distinct keys is cryptographically unlikely.
var errBuildFailed = errors.New("expt: xor filter construction failed")

// xorHashChunk is the per-task batch for the parallel hash precompute;
// fixed so work splitting does not depend on the worker count.
const xorHashChunk = 8192

// keySlots caches one key's three slot indices and fingerprint for a
// given seed, so the serial peel never re-hashes.
type keySlots struct {
	h0, h1, h2 uint32
	fp         uint8
}

// buildXor8 constructs a filter over the given keys. Keys must be
// distinct; duplicates make peeling fail.
//
// The peel itself is inherently sequential (each removal can unlock the
// next), but the dominant per-attempt cost — hashing every key to its
// three slots and fingerprint — is pure per-key work and runs across
// the worker pool. Slot sets track XORs of key *indices*, so the peel
// reads the precomputed hashes by index instead of re-deriving them.
// Seeds are tried in the same fixed order as the serial version, so the
// constructed filter is byte-identical at any worker count.
func buildXor8(keys []uint64) (*xor8, error) {
	n := len(keys)
	if n == 0 {
		return nil, errors.New("expt: empty key set")
	}
	capacity := uint32(32 + 123*n/100)
	capacity = capacity / 3 * 3 // round down to multiple of 3
	if capacity < 3 {
		capacity = 3
	}
	blockLength := capacity / 3

	type slotSet struct {
		count   uint32
		maskIdx uint32 // XOR of key indices mapping here
	}
	sets := make([]slotSet, capacity)
	hs := make([]keySlots, n)
	stackIdx := make([]uint32, 0, n)
	stackSlots := make([]uint32, 0, n)
	queue := make([]uint32, 0, capacity)

	for attempt := 0; attempt < 100; attempt++ {
		seed := parallel.SplitMix64(uint64(attempt)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D)
		parallel.ForChunks(n, xorHashChunk, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				k := keys[i]
				h0, h1, h2 := xorHashes(k, seed, blockLength)
				hs[i] = keySlots{h0: h0, h1: h1, h2: h2, fp: xorFingerprint(parallel.SplitMix64(k ^ seed))}
			}
		})
		for i := range sets {
			sets[i] = slotSet{}
		}
		for i := range hs {
			for _, h := range [3]uint32{hs[i].h0, hs[i].h1, hs[i].h2} {
				sets[h].count++
				sets[h].maskIdx ^= uint32(i)
			}
		}
		// Peel: repeatedly remove slots with exactly one key. A slot
		// holding one key has maskIdx equal to that key's index.
		queue = queue[:0]
		for i := range sets {
			if sets[i].count == 1 {
				queue = append(queue, uint32(i))
			}
		}
		stackIdx = stackIdx[:0]
		stackSlots = stackSlots[:0]
		for len(queue) > 0 {
			slot := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if sets[slot].count != 1 {
				continue
			}
			idx := sets[slot].maskIdx
			stackIdx = append(stackIdx, idx)
			stackSlots = append(stackSlots, slot)
			for _, h := range [3]uint32{hs[idx].h0, hs[idx].h1, hs[idx].h2} {
				sets[h].count--
				sets[h].maskIdx ^= idx
				if sets[h].count == 1 {
					queue = append(queue, h)
				}
			}
		}
		if len(stackIdx) != n {
			continue // cycle; retry with a new seed
		}
		// Assign fingerprints in reverse peel order. At the moment key k
		// is processed, fp[slot] is still zero, so XORing all three slot
		// values and the target fingerprint yields the value that makes
		// fp[h0]^fp[h1]^fp[h2] == fingerprint(k).
		fp := make([]uint8, capacity)
		for i := n - 1; i >= 0; i-- {
			ks := hs[stackIdx[i]]
			fp[stackSlots[i]] = ks.fp ^ fp[ks.h0] ^ fp[ks.h1] ^ fp[ks.h2]
		}
		return &xor8{seed: seed, blockLength: blockLength, fingerprints: fp}, nil
	}
	return nil, fmt.Errorf("%w after 100 seeds (duplicate keys?)", errBuildFailed)
}

// ContainsAll probes a batch of keys across the worker pool, returning
// per-key results in input order.
func (x *xor8) ContainsAll(keys []uint64) []bool {
	out := make([]bool, len(keys))
	parallel.ForChunks(len(keys), xorHashChunk, func(_, lo, hi int) {
		for i, key := range keys[lo:hi] {
			out[lo+i] = x.Contains(key)
		}
	})
	return out
}

// Contains reports whether key may be in the set (false positives at
// ~1/256, never false negatives for built keys).
func (x *xor8) Contains(key uint64) bool {
	h0, h1, h2 := xorHashes(key, x.seed, x.blockLength)
	want := xorFingerprint(parallel.SplitMix64(key ^ x.seed))
	return x.fingerprints[h0]^x.fingerprints[h1]^x.fingerprints[h2] == want
}

// BitsPerKey returns storage efficiency for a set of n keys.
func (x *xor8) BitsPerKey(n int) float64 {
	return float64(len(x.fingerprints)*8) / float64(n)
}
