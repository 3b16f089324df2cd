package expt

import (
	"fmt"
	mrand "math/rand"
	"time"

	"irs/internal/bloom"
	"irs/internal/parallel"
	"irs/internal/photo"
	"irs/internal/watermark"
)

// AblationFilters compares the three filter designs at matched
// populations: the standard Bloom filter the paper sizes (§4.4), the
// cache-line-blocked variant, and the xor filter the paper cites as a
// "recent advance" [15]. The trade the table exposes: xor buys a ~5×
// lower false-hit rate than the paper's 8.6 bits/key Bloom sizing at
// comparable space — at the cost of static (rebuild-only) updates, which
// is acceptable for hourly-republished snapshots.
func AblationFilters(scale Scale, seed int64) (*Report, error) {
	r := &Report{
		ID:         "ablation-filters",
		Title:      "filter designs at matched population (paper's §4.4 sizing)",
		PaperClaim: "standard Bloom sizing vs the cited 'recent advances' [9,15,16]",
		Columns:    []string{"filter", "bits/key", "FPR (measured)", "build", "lookup ns/op", "incremental?"},
	}
	n := scale.pick(20_000, 500_000)
	probes := scale.pick(100_000, 1_000_000)
	keys := make([]uint64, n)
	base := parallel.SplitMix64(uint64(seed))
	for i := range keys {
		keys[i] = parallel.SplitMix64(base + uint64(i))
	}
	probe := func(test func(uint64) bool) (fpr float64, nsOp float64) {
		fp := 0
		start := time.Now()
		for i := 0; i < probes; i++ {
			if test(parallel.SplitMix64(base + uint64(2_000_000_000+i))) {
				fp++
			}
		}
		elapsed := time.Since(start)
		return float64(fp) / float64(probes), float64(elapsed.Nanoseconds()) / float64(probes)
	}

	// Standard Bloom at the paper's ratio.
	const paperBitsPerKey = float64(8*(1<<30)) / 1e9
	m := uint64(float64(n) * paperBitsPerKey)
	start := time.Now()
	bf, err := bloom.New(m, 6)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		bf.Add(k)
	}
	bloomBuild := time.Since(start)
	fpr, ns := probe(bf.Test)
	r.AddRow("bloom (paper 8.6b/k)", fmt.Sprintf("%.2f", float64(bf.M())/float64(n)),
		fmt.Sprintf("%.3f%%", fpr*100), bloomBuild.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f", ns), "yes")

	// Blocked Bloom at the same size.
	start = time.Now()
	blk, err := newBlocked(m, 6)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		blk.Add(k)
	}
	blkBuild := time.Since(start)
	fpr, ns = probe(blk.Test)
	r.AddRow("blocked bloom (512b)", fmt.Sprintf("%.2f", float64(blk.M())/float64(n)),
		fmt.Sprintf("%.3f%%", fpr*100), blkBuild.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f", ns), "yes")

	// Xor filter.
	start = time.Now()
	xf, err := buildXor8(keys)
	if err != nil {
		return nil, err
	}
	xorBuild := time.Since(start)
	fpr, ns = probe(xf.Contains)
	r.AddRow("xor8 (Graf-Lemire)", fmt.Sprintf("%.2f", xf.BitsPerKey(n)),
		fmt.Sprintf("%.3f%%", fpr*100), xorBuild.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f", ns), "no (rebuild)")

	r.AddNote("population %d keys, %d negative probes per row", n, probes)
	r.AddNote("at the paper's 1 GB budget, xor8's 0.39%% FPR would raise the E2 load reduction from ~50x toward ~200x")
	return r, nil
}

// AblationWatermark sweeps the watermark's QIM strength Δ against
// distortion (PSNR) and JPEG survival — the robustness/visibility trade
// behind §3.2's "little or no perceptible distortion" requirement.
func AblationWatermark(scale Scale, seed int64) (*Report, error) {
	r := &Report{
		ID:         "ablation-watermark",
		Title:      "watermark strength Δ: distortion vs JPEG survival",
		PaperClaim: "watermarks must be imperceptible yet survive transcoding (§3.2, Goal #5)",
		Columns:    []string{"delta", "PSNR p50", "q90 survival", "q75 survival", "q50 survival", "q30 survival"},
	}
	nPhotos := scale.pick(5, 30)
	rng := mrand.New(mrand.NewSource(seed))

	for _, delta := range []float64{12, 18, 24, 36} {
		cfg := watermark.DefaultConfig()
		cfg.Delta = delta
		psnrs := make([]float64, 0, nPhotos)
		survive := map[int]int{90: 0, 75: 0, 50: 0, 30: 0}
		for i := 0; i < nPhotos; i++ {
			im := photo.Synth(seed+int64(i)*17, 192, 128)
			var payload [watermark.PayloadBytes]byte
			rng.Read(payload[:])
			wm, err := watermark.Embed(im, payload, cfg)
			if err != nil {
				return nil, err
			}
			p, err := photo.PSNR(im, wm)
			if err != nil {
				return nil, err
			}
			psnrs = append(psnrs, p)
			for q := range survive {
				res, err := watermark.ExtractAligned(photo.CompressJPEGLike(wm, q), cfg)
				if err == nil && res.Payload == payload {
					survive[q]++
				}
			}
		}
		pct := func(q int) string { return fmt.Sprintf("%.0f%%", float64(survive[q])/float64(nPhotos)*100) }
		r.AddRow(fmt.Sprintf("%.0f", delta),
			fmt.Sprintf("%.1f dB", medianFloat(psnrs)),
			pct(90), pct(75), pct(50), pct(30))
	}
	r.AddNote("%d photos per Δ; PSNR ≥ ~35 dB is the conventional invisibility bar", nPhotos)
	r.AddNote("default Δ=24 sits at the knee: invisible and robust through q50")
	return r, nil
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	cp := append([]float64(nil), v...)
	for i := 1; i < len(cp); i++ {
		x := cp[i]
		j := i - 1
		for j >= 0 && cp[j] > x {
			cp[j+1] = cp[j]
			j--
		}
		cp[j+1] = x
	}
	return cp[len(cp)/2]
}
