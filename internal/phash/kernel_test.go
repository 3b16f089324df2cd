package phash

import (
	"bytes"
	"testing"

	"irs/internal/dct"
	"irs/internal/photo"
)

// The reference implementations below are the seed's float-accumulation
// hash paths, kept verbatim as oracles: the integer prefix-sum downscale
// must reproduce them bit for bit, or every committed hash corpus and
// E-table silently shifts. (reference_test.go holds the second oracle,
// the per-cell integer summation the prefix sums replaced.)

func refDownscaleGray(im *photo.Image, w, h int) []float64 {
	out := make([]float64, w*h)
	for oy := 0; oy < h; oy++ {
		y0 := oy * im.H / h
		y1 := (oy + 1) * im.H / h
		if y1 <= y0 {
			y1 = y0 + 1
		}
		for ox := 0; ox < w; ox++ {
			x0 := ox * im.W / w
			x1 := (ox + 1) * im.W / w
			if x1 <= x0 {
				x1 = x0 + 1
			}
			var sum float64
			for y := y0; y < y1 && y < im.H; y++ {
				for x := x0; x < x1 && x < im.W; x++ {
					sum += float64(im.Gray(x, y))
				}
			}
			out[oy*w+ox] = sum / float64((y1-y0)*(x1-x0))
		}
	}
	return out
}

func refAHash(im *photo.Image) Hash {
	cells := refDownscaleGray(im, 8, 8)
	var mean float64
	for _, v := range cells {
		mean += v
	}
	mean /= 64
	var h Hash
	for i, v := range cells {
		if v > mean {
			h |= 1 << uint(i)
		}
	}
	return h
}

func refDHash(im *photo.Image) Hash {
	cells := refDownscaleGray(im, 9, 8)
	var h Hash
	i := 0
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if cells[y*9+x] > cells[y*9+x+1] {
				h |= 1 << uint(i)
			}
			i++
		}
	}
	return h
}

func refPHash(im *photo.Image) Hash {
	cells := refDownscaleGray(im, 32, 32)
	blk := &dct.Block{N: 32, Data: cells}
	coef := dct.NewBlock(32)
	dct.Forward2D(coef, blk)
	vals := make([]float64, 0, 64)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if x == 0 && y == 0 {
				vals = append(vals, coef.At(8, 8))
				continue
			}
			vals = append(vals, coef.At(y, x))
		}
	}
	med := median(vals)
	var h Hash
	for i, v := range vals {
		if v > med {
			h |= 1 << uint(i)
		}
	}
	return h
}

// testCorpus covers both channel layouts and the geometry edge cases the
// downscale has to clamp: tiny images (cells wider than the image),
// non-multiple-of-32 sizes, and square power-of-two sizes.
func testCorpus() []*photo.Image {
	var ims []*photo.Image
	for i, dims := range [][2]int{{128, 128}, {97, 61}, {256, 173}, {31, 33}, {5, 7}, {640, 480}} {
		ims = append(ims, photo.Synth(int64(100+i), dims[0], dims[1]))
		ims = append(ims, photo.SynthRGB(int64(200+i), dims[0], dims[1]))
	}
	return ims
}

// TestHashesBitIdenticalToFloatReference pins the integer-accumulation
// kernels against the seed's float paths: same hashes, bit for bit, on
// RGB and grayscale images across awkward geometries.
func TestHashesBitIdenticalToFloatReference(t *testing.T) {
	for i, im := range testCorpus() {
		if got, want := AHash(im), refAHash(im); got != want {
			t.Errorf("image %d (%dx%dx%d): AHash = %016x, reference = %016x", i, im.W, im.H, im.Channels, uint64(got), uint64(want))
		}
		if got, want := DHash(im), refDHash(im); got != want {
			t.Errorf("image %d (%dx%dx%d): DHash = %016x, reference = %016x", i, im.W, im.H, im.Channels, uint64(got), uint64(want))
		}
		if got, want := PHash(im), refPHash(im); got != want {
			t.Errorf("image %d (%dx%dx%d): PHash = %016x, reference = %016x", i, im.W, im.H, im.Channels, uint64(got), uint64(want))
		}
		if got, want := NewSignature(im), (Signature{A: refAHash(im), D: refDHash(im), P: refPHash(im)}); got != want {
			t.Errorf("image %d (%dx%dx%d): NewSignature = %016x, reference = %016x", i, im.W, im.H, im.Channels, got, want)
		}
	}
}

// TestHashesDoNotMutateInput guards the scratch-pool rewrite: hashing
// must never write through the caller's pixel buffer (the aggregator
// hashes images it is about to host verbatim).
func TestHashesDoNotMutateInput(t *testing.T) {
	for _, im := range testCorpus() {
		before := append([]byte(nil), im.Pix...)
		NewSignature(im)
		if !bytes.Equal(before, im.Pix) {
			t.Fatalf("hashing mutated a %dx%dx%d image's pixels", im.W, im.H, im.Channels)
		}
	}
}

// TestHashesZeroAlloc pins the pooled scratch: after warmup none of the
// three hashes, nor the signature that fuses them, may allocate. A
// regression here multiplies across every image in an upload batch.
func TestHashesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation heap-allocates the pooled scratch")
	}
	im := photo.Synth(42, 256, 192)
	for name, f := range map[string]func(*photo.Image) Hash{
		"AHash": AHash, "DHash": DHash, "PHash": PHash,
		"NewSignature": func(im *photo.Image) Hash { return NewSignature(im).P },
	} {
		f(im) // warm the pools
		if n := testing.AllocsPerRun(20, func() { f(im) }); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}

func BenchmarkAHash(b *testing.B) {
	im := photo.Synth(42, 256, 192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AHash(im)
	}
}

func BenchmarkDHash(b *testing.B) {
	im := photo.Synth(42, 256, 192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DHash(im)
	}
}
