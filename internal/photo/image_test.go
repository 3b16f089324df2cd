package photo

import (
	"math"
	"testing"
)

func TestNewGrayDims(t *testing.T) {
	im := NewGray(10, 7)
	if im.W != 10 || im.H != 7 || im.Channels != 1 || len(im.Pix) != 70 {
		t.Fatalf("bad gray image: %dx%dx%d len %d", im.W, im.H, im.Channels, len(im.Pix))
	}
}

func TestNewRGBDims(t *testing.T) {
	im := NewRGB(4, 5)
	if im.Channels != 3 || len(im.Pix) != 60 {
		t.Fatalf("bad rgb image: channels %d len %d", im.Channels, len(im.Pix))
	}
}

func TestGraySetGet(t *testing.T) {
	im := NewGray(8, 8)
	im.SetGray(3, 4, 200)
	if got := im.Gray(3, 4); got != 200 {
		t.Errorf("Gray(3,4) = %d, want 200", got)
	}
}

func TestRGBLumaProjection(t *testing.T) {
	im := NewRGB(2, 1)
	im.Pix[0], im.Pix[1], im.Pix[2] = 255, 0, 0 // pure red
	want := byte(299 * 255 / 1000)
	if got := im.Gray(0, 0); got != want {
		t.Errorf("red luma = %d, want %d", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	im := NewGray(4, 4)
	im.Meta.Set("k", "v")
	c := im.Clone()
	c.SetGray(0, 0, 99)
	c.Meta.Set("k", "other")
	if im.Gray(0, 0) == 99 {
		t.Error("clone shares pixels")
	}
	if im.Meta.Get("k") != "v" {
		t.Error("clone shares metadata")
	}
}

func TestLumaRoundTripGray(t *testing.T) {
	im := Synth(1, 32, 32)
	l := im.Luma()
	im2 := NewGray(32, 32)
	im2.SetLuma(l)
	if !im.Equal(im2) {
		t.Error("Luma/SetLuma round trip changed pixels")
	}
}

func TestSetLumaRGBPreservesChroma(t *testing.T) {
	im := SynthRGB(2, 16, 16)
	l := im.Luma()
	for i := range l {
		l[i] += 10
	}
	before := im.Clone()
	im.SetLuma(l)
	// The red/green difference should be roughly preserved where no
	// clamping occurred.
	kept := 0
	for i := 0; i < len(im.Pix); i += 3 {
		if im.Pix[i] > 15 && im.Pix[i] < 240 && im.Pix[i+1] > 15 && im.Pix[i+1] < 240 {
			d0 := int(before.Pix[i]) - int(before.Pix[i+1])
			d1 := int(im.Pix[i]) - int(im.Pix[i+1])
			if abs(d0-d1) <= 2 {
				kept++
			}
		}
	}
	if kept == 0 {
		t.Error("SetLuma destroyed chroma everywhere")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestContentHashIgnoresMetadata(t *testing.T) {
	a := Synth(3, 32, 32)
	b := a.Clone()
	b.Meta.Set(KeyIRSID, "whatever")
	if a.ContentHash() != b.ContentHash() {
		t.Error("metadata changed content hash")
	}
	b.SetGray(0, 0, b.Gray(0, 0)+1)
	if a.ContentHash() == b.ContentHash() {
		t.Error("pixel change did not change content hash")
	}
}

func TestContentHashDimensionSensitive(t *testing.T) {
	a := NewGray(4, 2)
	b := NewGray(2, 4)
	if a.ContentHash() == b.ContentHash() {
		t.Error("4x2 and 2x4 zero images hash equal")
	}
}

func TestMeanAbsDiff(t *testing.T) {
	a := NewGray(2, 2)
	b := NewGray(2, 2)
	b.Pix[0] = 4
	got, err := MeanAbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1.0 {
		t.Errorf("MeanAbsDiff = %g, want 1.0", got)
	}
	if _, err := MeanAbsDiff(a, NewGray(3, 2)); err == nil {
		t.Error("size mismatch not reported")
	}
}

func TestPSNR(t *testing.T) {
	a := Synth(4, 32, 32)
	same, err := PSNR(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(same, 1) {
		t.Errorf("PSNR(identical) = %g, want +Inf", same)
	}
	noisy := AddNoise(a, 5, 1)
	p, err := PSNR(a, noisy)
	if err != nil {
		t.Fatal(err)
	}
	if p < 25 || p > 50 {
		t.Errorf("PSNR with sigma-5 noise = %g, expected ~34 dB", p)
	}
}

func TestEqual(t *testing.T) {
	a := Synth(5, 16, 16)
	if !a.Equal(a.Clone()) {
		t.Error("clone not Equal")
	}
	b := a.Clone()
	b.Pix[7]++
	if a.Equal(b) {
		t.Error("differing pixels reported Equal")
	}
	if a.Equal(NewGray(16, 15)) {
		t.Error("differing dims reported Equal")
	}
}
