package phash

import (
	"fmt"
	"testing"

	"irs/internal/photo"
)

func TestDistanceBasics(t *testing.T) {
	if Distance(0, 0) != 0 {
		t.Error("identical hashes should be distance 0")
	}
	if Distance(0, ^Hash(0)) != 64 {
		t.Error("complement hashes should be distance 64")
	}
	if Distance(0b1011, 0b0001) != 2 {
		t.Error("distance arithmetic wrong")
	}
}

func TestMatch(t *testing.T) {
	if !Match(0, 0b111, 3) {
		t.Error("distance 3 should match at threshold 3")
	}
	if Match(0, 0b1111, 3) {
		t.Error("distance 4 should not match at threshold 3")
	}
}

func TestHashesDeterministic(t *testing.T) {
	im := photo.Synth(1, 128, 128)
	for name, f := range map[string]func(*photo.Image) Hash{
		"ahash": AHash, "dhash": DHash, "phash": PHash,
	} {
		if f(im) != f(im.Clone()) {
			t.Errorf("%s not deterministic", name)
		}
	}
}

func TestUnrelatedImagesFar(t *testing.T) {
	// Mean distance across unrelated pairs should be near 32; no single
	// pair should look like a match under the 2-of-3 rule.
	const n = 12
	sigs := make([]Signature, n)
	for i := range sigs {
		sigs[i] = NewSignature(photo.Synth(int64(1000+i*37), 128, 128))
	}
	var total, pairs int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total += Distance(sigs[i].P, sigs[j].P)
			pairs++
			if sigs[i].Matches(sigs[j]) {
				t.Errorf("unrelated images %d and %d matched", i, j)
			}
		}
	}
	mean := float64(total) / float64(pairs)
	if mean < 16 || mean > 48 {
		t.Errorf("mean unrelated pHash distance %g, want near %d", mean, ExpectedRandomDistance)
	}
}

func TestRobustToCompression(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		im := photo.Synth(seed, 128, 128)
		sig := NewSignature(im)
		for _, q := range []int{90, 75, 50} {
			got := NewSignature(photo.CompressJPEGLike(im, q))
			if !sig.Matches(got) {
				t.Errorf("seed %d q%d: signature did not survive compression (sim %.3f)",
					seed, q, sig.Similarity(got))
			}
		}
	}
}

func TestRobustToTint(t *testing.T) {
	for seed := int64(10); seed < 15; seed++ {
		im := photo.Synth(seed, 128, 128)
		sig := NewSignature(im)
		got := NewSignature(photo.Tint(im, 1.15, 12))
		if !sig.Matches(got) {
			t.Errorf("seed %d: signature did not survive tint (sim %.3f)", seed, sig.Similarity(got))
		}
	}
}

func TestRobustToMildCrop(t *testing.T) {
	matched := 0
	const n = 8
	for seed := int64(20); seed < 20+n; seed++ {
		im := photo.Synth(seed, 160, 160)
		sig := NewSignature(im)
		cropped, err := photo.CropFraction(im, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if sig.Matches(NewSignature(cropped)) {
			matched++
		}
	}
	// Mild crops shift content; perceptual hashes tolerate most but not
	// necessarily all. Require a strong majority.
	if matched < n*3/4 {
		t.Errorf("only %d/%d signatures survived a 5%% crop", matched, n)
	}
}

func TestRobustToScale(t *testing.T) {
	im := photo.Synth(30, 128, 128)
	sig := NewSignature(im)
	scaled, err := photo.Scale(im, 96, 96)
	if err != nil {
		t.Fatal(err)
	}
	if !sig.Matches(NewSignature(scaled)) {
		t.Error("signature did not survive rescaling — the hash exists precisely for this")
	}
}

func TestRobustToWatermarkStrength(t *testing.T) {
	// A derived image that went through noise comparable to watermarking
	// must still match: the appeals flow hashes watermarked copies.
	im := photo.Synth(31, 128, 128)
	sig := NewSignature(im)
	noisy := photo.AddNoise(im, 3, 7)
	if !sig.Matches(NewSignature(noisy)) {
		t.Error("signature did not survive watermark-scale noise")
	}
}

func TestSimilarityBounds(t *testing.T) {
	im := photo.Synth(40, 96, 96)
	sig := NewSignature(im)
	if got := sig.Similarity(sig); got != 1 {
		t.Errorf("self similarity = %g, want 1", got)
	}
	other := NewSignature(photo.Synth(41, 96, 96))
	got := sig.Similarity(other)
	if got < 0 || got >= 1 {
		t.Errorf("similarity %g out of [0,1)", got)
	}
}

func TestMedianOddEven(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
	// median must not modify input
	in := []float64{5, 1, 3}
	median(in)
	if in[0] != 5 || in[1] != 1 || in[2] != 3 {
		t.Error("median mutated input")
	}
}

func TestNormalizedDistance(t *testing.T) {
	if NormalizedDistance(0) != 0 {
		t.Error("0 should normalize to 0")
	}
	if NormalizedDistance(64) != 1 {
		t.Error("64 should normalize to 1")
	}
	if NormalizedDistance(100) != 1 {
		t.Error("overrange should clamp to 1")
	}
}

func TestDHashInvariantToUniformBrightness(t *testing.T) {
	// DHash compares neighbors, so adding a constant must not change it
	// except where clamping kicks in.
	im := photo.Synth(50, 128, 128)
	h1 := DHash(im)
	h2 := DHash(photo.Tint(im, 1.0, 5))
	if Distance(h1, h2) > 4 {
		t.Errorf("dHash moved %d bits under +5 brightness", Distance(h1, h2))
	}
}

func BenchmarkPHash(b *testing.B) {
	im := photo.Synth(1, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PHash(im)
	}
}

// BenchmarkNewSignature is the per-upload hashing cost at the upload
// benchmark's image size and at a photo-sized one.
func BenchmarkNewSignature(b *testing.B) {
	for _, dims := range [][2]int{{192, 128}, {1024, 768}} {
		im := photo.Synth(1, dims[0], dims[1])
		b.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = NewSignature(im)
			}
		})
	}
}
