package expt

import (
	"fmt"
	"math/rand"

	"irs/internal/bloom"
	"irs/internal/parallel"
)

// E1BloomSizing regenerates §4.4's filter-sizing claim: "a 1GB filter
// would provide a 2% false-hit rate with a population of 1 billion
// photos ... Similarly, a 100GB Bloom filter would provide a similar
// error rate for a population of 100 billion photos."
//
// The paper's ratio is 8 GiB of bits per 10⁹ keys ≈ 8.59 bits/key
// (optimal k = 6). Holding that ratio fixed, the false-hit rate is
// scale-invariant, so a laptop-scale population measures the same
// operating point the paper sizes at 1 GB/10⁹; the table shows measured
// FPR across three population decades plus the analytic values at the
// paper's two headline points.
func E1BloomSizing(scale Scale, seed int64) (*Report, error) {
	r := &Report{
		ID:    "e1",
		Title: "Bloom filter sizing at the paper's bits-per-key ratio",
		PaperClaim: "1 GB filter @ 1 B photos → ~2% false hits; " +
			"100 GB @ 100 B → similar (§4.4)",
		Columns: []string{"population", "filter", "bits/key", "k", "FPR (measured)", "FPR (theory)"},
	}
	rng := rand.New(rand.NewSource(seed))

	// The paper's ratio: 1 GiB of filter per 1e9 keys.
	const paperBitsPerKey = float64(8*(1<<30)) / 1e9 // ≈ 8.59
	const k = 6

	pops := []int{10_000, 100_000, 1_000_000}
	if scale == Quick {
		pops = []int{10_000, 50_000}
	}
	probes := scale.pick(50_000, 400_000)

	for _, n := range pops {
		m := uint64(float64(n) * paperBitsPerKey)
		f, err := bloom.New(m, k)
		if err != nil {
			return nil, err
		}
		// Key streams are a pure function of the index, so both the
		// filter build and the probe loop run on the worker pool: keys
		// are materialized in parallel by index, AddAll shards the
		// insert (bit-identical to serial Add by OR-commutativity), and
		// CountHits sums per-chunk tallies in chunk order.
		base := rng.Uint64()
		keys := make([]uint64, n)
		parallel.ForChunks(n, 8192, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				keys[i] = parallel.SplitMix64(base + uint64(i))
			}
		})
		f.AddAll(keys)
		probeKeys := make([]uint64, probes)
		parallel.ForChunks(probes, 8192, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				probeKeys[i] = parallel.SplitMix64(base + uint64(1_000_000_000+i))
			}
		})
		fp := f.CountHits(probeKeys)
		measured := float64(fp) / float64(probes)
		theory := bloom.TheoreticalFPR(f.M(), k, uint64(n))
		r.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f KiB", float64(f.SizeBytes())/1024),
			fmt.Sprintf("%.2f", float64(f.M())/float64(n)),
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.3f%%", measured*100),
			fmt.Sprintf("%.3f%%", theory*100),
		)
	}

	// The paper's headline points, analytically (the same formula the
	// measured rows just validated).
	for _, pt := range []struct {
		name  string
		bytes uint64
		pop   uint64
	}{
		{"1e9 (paper)", 1 << 30, 1e9},
		{"1e11 (paper)", 100 << 30, 100e9},
	} {
		bpk, kk, fpr := bloom.PaperOperatingPoint(pt.bytes, pt.pop)
		r.AddRow(
			pt.name,
			fmt.Sprintf("%d GiB", pt.bytes>>30),
			fmt.Sprintf("%.2f", bpk),
			fmt.Sprintf("%d", kk),
			"—",
			fmt.Sprintf("%.3f%%", fpr*100),
		)
	}
	r.AddNote("measured rows are a scale model: same bits/key and k as the paper's 1 GB/1 B point, so the FPR transfers")
	r.AddNote("the ~2%% false-hit rate implies the §4.4 load reduction of 1/0.02 = 50x (measured end-to-end in E2)")
	return r, nil
}
