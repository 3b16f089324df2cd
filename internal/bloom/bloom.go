// Package bloom provides the approximate-membership filters that keep
// ledger load tractable during the IRS bootstrap phase.
//
// Paper §4.4: "Each ledger would produce a Bloom filter of their claimed
// photos ... which the proxies would download and then take the OR of all
// ledger Bloom filters. ... a 1GB filter would provide a 2% false-hit
// rate with a population of 1 billion photos, thereby lessening the load
// on ledgers by a factor of fifty."
//
// Filter is the classic Bloom filter the paper sizes its argument
// around. It supports incremental Add, OR-union across ledgers, exact
// serialization, and delta-encoded updates (delta.go) for the hourly
// refresh the paper proposes, served from numbered epochs (window.go). (The xor and cache-line-blocked designs
// the paper cites as "recent advances" live beside their one caller,
// the filter ablation in internal/expt.)
//
// Filters consume pre-hashed 64-bit keys. Callers fold larger
// identifiers (e.g. the 128-bit ids.PhotoID) with Fold or hash raw bytes
// with KeyBytes.
package bloom

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"sync/atomic"

	"irs/internal/parallel"
)

// Fold compresses a 128-bit identifier into the 64-bit key space used by
// the filters.
func Fold(hi, lo uint64) uint64 {
	return parallel.SplitMix64(hi ^ bits.RotateLeft64(lo, 32))
}

var keySeed = maphash.MakeSeed()

// KeyBytes hashes an arbitrary byte string into the filter key space.
func KeyBytes(b []byte) uint64 { return maphash.Bytes(keySeed, b) }

// Filter is a standard Bloom filter with k hash functions over m bits,
// using Kirsch–Mitzenmacher double hashing. The zero value is unusable;
// construct with New or NewWithEstimate.
//
// Filter is not safe for concurrent mutation; the proxy wraps it with
// its own lock.
type Filter struct {
	m    uint64 // number of bits
	k    int    // number of hash functions
	bits []uint64
	n    uint64 // count of Adds (approximate population)
}

// New creates a filter with exactly m bits (rounded up to a multiple of
// 64) and k hash functions.
func New(m uint64, k int) (*Filter, error) {
	if m == 0 || k <= 0 || k > 32 {
		return nil, fmt.Errorf("bloom: invalid parameters m=%d k=%d", m, k)
	}
	words := (m + 63) / 64
	return &Filter{m: words * 64, k: k, bits: make([]uint64, words)}, nil
}

// NewWithEstimate sizes a filter for n keys at target false-positive rate
// p, using the standard formulas m = -n·ln p / ln²2 and k = m/n·ln 2.
func NewWithEstimate(n uint64, p float64) (*Filter, error) {
	if n == 0 || p <= 0 || p >= 1 {
		return nil, fmt.Errorf("bloom: invalid estimate n=%d p=%g", n, p)
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return New(m, k)
}

// M returns the filter size in bits.
func (f *Filter) M() uint64 { return f.m }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.k }

// N returns the number of keys added.
func (f *Filter) N() uint64 { return f.n }

// SizeBytes returns the bit-array size in bytes.
func (f *Filter) SizeBytes() uint64 { return f.m / 8 }

// Add inserts a key.
func (f *Filter) Add(key uint64) {
	f.addNoCount(key)
	f.n++
}

// addAllChunk is the per-task key batch for AddAll/TestAll. Fixed (not
// derived from the worker count) so work splitting is deterministic;
// large enough that goroutine handoff is noise next to the k hash
// probes per key.
const addAllChunk = 4096

// AddAll inserts a batch of keys, sharding the work across the worker
// pool for large batches. Workers set bits with atomic OR on the shared
// word array, so the resulting filter is bit-identical to a serial Add
// loop (OR is commutative) at any worker count — the property E1's
// committed tables rely on. Small batches fall back to the serial loop.
//
// AddAll must not race with other mutations or with Test; it
// parallelizes one logically-serial bulk insert (the §4.4 hourly
// snapshot build), it does not make Filter concurrent.
func (f *Filter) AddAll(keys []uint64) {
	if len(keys) < 2*addAllChunk || parallel.Workers() == 1 {
		for _, k := range keys {
			f.addNoCount(k)
		}
		f.n += uint64(len(keys))
		return
	}
	parallel.ForChunks(len(keys), addAllChunk, func(_, lo, hi int) {
		for _, key := range keys[lo:hi] {
			h1 := parallel.SplitMix64(key)
			h2 := parallel.SplitMix64(key ^ 0xdeadbeefcafef00d)
			for i := 0; i < f.k; i++ {
				idx := (h1 + uint64(i)*h2) % f.m
				atomic.OrUint64(&f.bits[idx/64], 1<<(idx%64))
			}
		}
	})
	f.n += uint64(len(keys))
}

func (f *Filter) addNoCount(key uint64) {
	h1 := parallel.SplitMix64(key)
	h2 := parallel.SplitMix64(key ^ 0xdeadbeefcafef00d)
	for i := 0; i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) % f.m
		f.bits[idx/64] |= 1 << (idx % 64)
	}
}

// TestAll probes a batch of keys across the worker pool, returning
// per-key results in input order. The filter must not be mutated
// concurrently.
func (f *Filter) TestAll(keys []uint64) []bool {
	out := make([]bool, len(keys))
	parallel.ForChunks(len(keys), addAllChunk, func(_, lo, hi int) {
		for i, key := range keys[lo:hi] {
			out[lo+i] = f.Test(key)
		}
	})
	return out
}

// CountHits returns how many keys of the batch the filter reports as
// present — the probe loop of the filter-sizing experiments, with the
// per-chunk tallies combined in chunk order.
func (f *Filter) CountHits(keys []uint64) int {
	chunks := (len(keys) + addAllChunk - 1) / addAllChunk
	partial := make([]int, chunks)
	parallel.ForChunks(len(keys), addAllChunk, func(c, lo, hi int) {
		hits := 0
		for _, key := range keys[lo:hi] {
			if f.Test(key) {
				hits++
			}
		}
		partial[c] = hits
	})
	total := 0
	for _, h := range partial {
		total += h
	}
	return total
}

// Test reports whether key may be present. False positives occur at the
// designed rate; false negatives never.
func (f *Filter) Test(key uint64) bool {
	h1 := parallel.SplitMix64(key)
	h2 := parallel.SplitMix64(key ^ 0xdeadbeefcafef00d)
	for i := 0; i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) % f.m
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// FillRatio returns the fraction of set bits.
func (f *Filter) FillRatio() float64 {
	var set int
	for _, w := range f.bits {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(f.m)
}

// EstimatedFPR returns the false-positive rate implied by the current
// fill ratio: fill^k.
func (f *Filter) EstimatedFPR() float64 {
	return math.Pow(f.FillRatio(), float64(f.k))
}

// TheoreticalFPR returns the design-time false-positive rate for a filter
// of m bits and k hashes holding n keys: (1 - e^{-kn/m})^k. E1 uses this
// to extrapolate to the paper's 1 GB / 10⁹ operating point.
func TheoreticalFPR(m uint64, k int, n uint64) float64 {
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(m)), float64(k))
}

// ErrMismatch is returned when combining or diffing filters with
// different parameters.
var ErrMismatch = errors.New("bloom: filter parameters mismatch")

// Union ORs other into f — the proxy-side aggregation across ledgers
// (§4.4: "take the OR of all ledger Bloom filters"). Both filters must
// share m and k. The population estimate becomes the sum (an upper
// bound; overlap is not measurable).
func (f *Filter) Union(other *Filter) error {
	if f.m != other.m || f.k != other.k {
		return ErrMismatch
	}
	for i, w := range other.bits {
		f.bits[i] |= w
	}
	f.n += other.n
	return nil
}

// Clone returns a deep copy.
func (f *Filter) Clone() *Filter {
	out := &Filter{m: f.m, k: f.k, n: f.n, bits: make([]uint64, len(f.bits))}
	copy(out.bits, f.bits)
	return out
}

// Reset clears the filter in place.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.n = 0
}

// Hash returns the SHA-256 of the filter's parameters and bit array.
// The population estimate n is deliberately excluded: two filters that
// answer every Test identically hash alike, which is the equivalence
// the sync protocol's base-hash validation needs. (n can legitimately
// differ between a snapshot and the same bits reached via deltas.)
func (f *Filter) Hash() [32]byte {
	h := sha256.New()
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[0:], f.m)
	binary.BigEndian.PutUint32(hdr[8:], uint32(f.k))
	h.Write(hdr[:])
	var wb [8]byte
	for _, w := range f.bits {
		binary.BigEndian.PutUint64(wb[:], w)
		h.Write(wb[:])
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

const filterMagic = "IRSBF1"

// Marshal serializes the filter: magic ∥ m ∥ k ∥ n ∥ bit words.
func (f *Filter) Marshal() []byte {
	out := make([]byte, 0, 6+8+4+8+len(f.bits)*8)
	out = append(out, filterMagic...)
	var hdr [20]byte
	binary.BigEndian.PutUint64(hdr[0:], f.m)
	binary.BigEndian.PutUint32(hdr[8:], uint32(f.k))
	binary.BigEndian.PutUint64(hdr[12:], f.n)
	out = append(out, hdr[:]...)
	for _, w := range f.bits {
		var wb [8]byte
		binary.BigEndian.PutUint64(wb[:], w)
		out = append(out, wb[:]...)
	}
	return out
}

// Unmarshal reconstructs a filter serialized with Marshal.
func Unmarshal(b []byte) (*Filter, error) {
	if len(b) < 6+20 || string(b[:6]) != filterMagic {
		return nil, errors.New("bloom: bad filter encoding")
	}
	m := binary.BigEndian.Uint64(b[6:])
	k := int(binary.BigEndian.Uint32(b[14:]))
	n := binary.BigEndian.Uint64(b[18:])
	body := b[26:]
	// Validate m against the body BEFORE allocating: a hostile header can
	// otherwise demand an absurd (or overflowing) bit array.
	if m == 0 || m > uint64(len(body))*8 {
		return nil, fmt.Errorf("bloom: m=%d inconsistent with %d body bytes", m, len(body))
	}
	f, err := New(m, k)
	if err != nil {
		return nil, err
	}
	f.n = n
	want := len(f.bits) * 8
	if len(body) != want {
		return nil, fmt.Errorf("bloom: body %d bytes, want %d", len(body), want)
	}
	for i := range f.bits {
		f.bits[i] = binary.BigEndian.Uint64(body[i*8:])
	}
	return f, nil
}

// PaperOperatingPoint reports the paper's headline configuration:
// filterBytes of filter for population keys, returning bits/key, the
// optimal k, and the theoretical FPR. Used by E1 to print the 1 GB/1 B
// and 100 GB/100 B rows next to the measured scale model.
func PaperOperatingPoint(filterBytes, population uint64) (bitsPerKey float64, k int, fpr float64) {
	m := filterBytes * 8
	bitsPerKey = float64(m) / float64(population)
	k = int(math.Round(bitsPerKey * math.Ln2))
	if k < 1 {
		k = 1
	}
	return bitsPerKey, k, TheoreticalFPR(m, k, population)
}
