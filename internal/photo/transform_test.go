package photo

import (
	"testing"
)

func TestSynthDeterministic(t *testing.T) {
	a := Synth(99, 64, 64)
	b := Synth(99, 64, 64)
	if !a.Equal(b) {
		t.Error("same seed produced different images")
	}
	c := Synth(100, 64, 64)
	if a.Equal(c) {
		t.Error("different seeds produced identical images")
	}
}

func TestSynthHasDynamicRange(t *testing.T) {
	im := Synth(7, 64, 64)
	lo, hi := byte(255), byte(0)
	for _, p := range im.Pix {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if hi-lo < 60 {
		t.Errorf("synthetic image too flat: range [%d,%d]", lo, hi)
	}
}

func TestCrop(t *testing.T) {
	im := Synth(1, 32, 32)
	c, err := Crop(im, 4, 8, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if c.W != 10 || c.H != 12 {
		t.Fatalf("crop dims %dx%d", c.W, c.H)
	}
	for y := 0; y < c.H; y++ {
		for x := 0; x < c.W; x++ {
			if c.Gray(x, y) != im.Gray(x+4, y+8) {
				t.Fatalf("crop pixel mismatch at (%d,%d)", x, y)
			}
		}
	}
}

func TestCropBounds(t *testing.T) {
	im := NewGray(8, 8)
	for _, c := range [][4]int{{-1, 0, 4, 4}, {0, 0, 9, 4}, {5, 5, 4, 4}, {0, 0, 0, 4}} {
		if _, err := Crop(im, c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("crop %v accepted", c)
		}
	}
}

func TestCropFractionCarriesMetadata(t *testing.T) {
	im := Synth(2, 40, 40)
	im.Meta.Set(KeyIRSID, "id")
	c, err := CropFraction(im, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if c.W != 36 || c.H != 36 {
		t.Errorf("crop-0.9 dims %dx%d, want 36x36", c.W, c.H)
	}
	if c.Meta.Get(KeyIRSID) != "id" {
		t.Error("crop dropped metadata")
	}
}

func TestScaleIdentitySize(t *testing.T) {
	im := Synth(3, 24, 24)
	s, err := Scale(im, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	d, err := MeanAbsDiff(im, s)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1.0 {
		t.Errorf("identity-size scale distorted image: MAD %g", d)
	}
}

func TestScaleDownUp(t *testing.T) {
	im := Synth(4, 64, 64)
	down, err := Scale(im, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	up, err := Scale(down, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	d, err := MeanAbsDiff(im, up)
	if err != nil {
		t.Fatal(err)
	}
	// Low-pass round trip loses detail but must stay recognizable.
	if d > 20 {
		t.Errorf("scale round trip MAD %g too large", d)
	}
}

func TestTint(t *testing.T) {
	im := Synth(5, 16, 16)
	brighter := Tint(im, 1.0, 20)
	var up int
	for i := range im.Pix {
		if brighter.Pix[i] > im.Pix[i] {
			up++
		}
	}
	if up < len(im.Pix)*8/10 {
		t.Errorf("brightness tint raised only %d/%d pixels", up, len(im.Pix))
	}
}

func TestAddNoiseDeterministic(t *testing.T) {
	im := Synth(6, 16, 16)
	a := AddNoise(im, 3, 5)
	b := AddNoise(im, 3, 5)
	if !a.Equal(b) {
		t.Error("same noise seed produced different images")
	}
	d, err := MeanAbsDiff(im, a)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.5 || d > 6 {
		t.Errorf("sigma-3 noise MAD %g out of expected range", d)
	}
}

func TestCompressJPEGLikeQualityOrdering(t *testing.T) {
	im := Synth(8, 64, 64)
	q90 := CompressJPEGLike(im, 90)
	q50 := CompressJPEGLike(im, 50)
	q10 := CompressJPEGLike(im, 10)
	d90, _ := MeanAbsDiff(im, q90)
	d50, _ := MeanAbsDiff(im, q50)
	d10, _ := MeanAbsDiff(im, q10)
	if !(d90 <= d50 && d50 <= d10) {
		t.Errorf("distortion not monotone in quality: q90=%g q50=%g q10=%g", d90, d50, d10)
	}
	if d90 > 4 {
		t.Errorf("q90 distortion %g too large", d90)
	}
	if d10 < 1 {
		t.Errorf("q10 distortion %g implausibly small", d10)
	}
}

func TestCompressPreservesMetadata(t *testing.T) {
	im := Synth(9, 32, 32)
	im.Meta.Set(KeyIRSID, "id")
	out := CompressJPEGLike(im, 75)
	if out.Meta.Get(KeyIRSID) != "id" {
		t.Error("transcoding stripped metadata; stripping is a separate policy")
	}
}

func TestCompressOddDimensions(t *testing.T) {
	im := Synth(10, 37, 29)
	out := CompressJPEGLike(im, 75)
	if out.W != 37 || out.H != 29 {
		t.Fatalf("dims changed: %dx%d", out.W, out.H)
	}
}

func TestBenignTransformsAllRun(t *testing.T) {
	im := Synth(11, 48, 48)
	im.Meta.Set(KeyIRSID, "id")
	suite := BenignTransforms()
	if len(suite) < 8 {
		t.Fatalf("suite too small: %d", len(suite))
	}
	seen := map[string]bool{}
	for _, tr := range suite {
		if seen[tr.Name] {
			t.Errorf("duplicate transform name %q", tr.Name)
		}
		seen[tr.Name] = true
		out, err := tr.Apply(im)
		if err != nil {
			t.Errorf("%s: %v", tr.Name, err)
			continue
		}
		if out == im {
			t.Errorf("%s returned the input image; transforms must copy", tr.Name)
		}
	}
	// The strip transforms must drop metadata; others must keep it.
	for _, tr := range suite {
		out, err := tr.Apply(im)
		if err != nil {
			continue
		}
		hasLabel := out.Meta.Has(KeyIRSID)
		wantStrip := tr.Name == "strip-meta" || tr.Name == "jpeg75+strip"
		if wantStrip && hasLabel {
			t.Errorf("%s kept metadata", tr.Name)
		}
		if !wantStrip && !hasLabel {
			t.Errorf("%s dropped metadata", tr.Name)
		}
	}
}

func TestMetadataStrip(t *testing.T) {
	m := NewMetadata()
	m.Set(KeyIRSID, "a")
	m.Set(KeyIRSLedgerURL, "b")
	m.Set("exif.gps", "secret")
	m.StripNonIRS()
	if !m.HasIRSLabel() {
		t.Error("StripNonIRS removed the IRS label")
	}
	if m.Has("exif.gps") {
		t.Error("StripNonIRS kept EXIF")
	}
	m.StripAll()
	if m.Len() != 0 {
		t.Error("StripAll left entries")
	}
}

func TestMetadataBasics(t *testing.T) {
	m := NewMetadata()
	m.Set("", "ignored")
	if m.Len() != 0 {
		t.Error("empty key stored")
	}
	m.Set("k", "v")
	if !m.Has("k") || m.Get("k") != "v" {
		t.Error("set/get broken")
	}
	m.Set("b", "2")
	m.Set("a", "1")
	keys := m.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "k" {
		t.Errorf("Keys() = %v, want sorted [a b k]", keys)
	}
}

func BenchmarkSynth256(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Synth(int64(i), 256, 256)
	}
}

func BenchmarkCompressJPEGLike(b *testing.B) {
	im := Synth(1, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CompressJPEGLike(im, 75)
	}
}
