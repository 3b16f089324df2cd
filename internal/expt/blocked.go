package expt

import (
	"fmt"
	"math"

	"irs/internal/parallel"
)

// blocked is a cache-line-blocked Bloom filter: each key is confined to
// one 512-bit (64-byte) block chosen by its hash, and all k probe bits
// land inside that block. Lookups therefore touch a single cache line
// instead of k random ones — the standard latency optimization for
// filters at the gigabyte scale the paper contemplates (§4.4 sizes a
// 1–100 GB filter; at that size every probe is a cache/TLB miss, so
// probes-per-lookup dominates). The cost is a slightly higher
// false-positive rate at equal size, because keys are unevenly
// distributed over blocks. The ablation benchmark quantifies both sides.
type blocked struct {
	numBlocks uint64
	k         int
	words     []uint64 // 8 words (512 bits) per block
}

const blockWords = 8 // 512-bit blocks

// newBlocked creates a blocked filter of approximately m bits (rounded
// up to whole 512-bit blocks) with k probes per key.
func newBlocked(m uint64, k int) (*blocked, error) {
	if m == 0 || k <= 0 || k > 32 {
		return nil, fmt.Errorf("expt: invalid blocked parameters m=%d k=%d", m, k)
	}
	blocks := (m + 511) / 512
	return &blocked{numBlocks: blocks, k: k, words: make([]uint64, blocks*blockWords)}, nil
}

// newBlockedWithEstimate sizes a blocked filter like bloom.NewWithEstimate,
// with the same formulas (the blocking penalty is small at these loads
// and measured rather than modeled).
func newBlockedWithEstimate(n uint64, p float64) (*blocked, error) {
	if n == 0 || p <= 0 || p >= 1 {
		return nil, fmt.Errorf("expt: invalid estimate n=%d p=%g", n, p)
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return newBlocked(m, k)
}

// Add inserts a key.
func (b *blocked) Add(key uint64) {
	h := parallel.SplitMix64(key)
	block := (h % b.numBlocks) * blockWords
	g := parallel.SplitMix64(h)
	for i := 0; i < b.k; i++ {
		bit := (g >> (i * 9)) & 511 // 9 bits select within 512
		if i >= 7 {                 // ran out of entropy; re-mix
			g = parallel.SplitMix64(g)
			bit = g & 511
		}
		b.words[block+bit/64] |= 1 << (bit % 64)
	}
}

// Test reports whether key may be present.
func (b *blocked) Test(key uint64) bool {
	h := parallel.SplitMix64(key)
	block := (h % b.numBlocks) * blockWords
	g := parallel.SplitMix64(h)
	for i := 0; i < b.k; i++ {
		bit := (g >> (i * 9)) & 511
		if i >= 7 {
			g = parallel.SplitMix64(g)
			bit = g & 511
		}
		if b.words[block+bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// M returns the total size in bits.
func (b *blocked) M() uint64 { return b.numBlocks * 512 }
