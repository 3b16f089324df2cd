package watermark

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"irs/internal/photo"
)

func payloadFromSeed(seed int64) [PayloadBytes]byte {
	var p [PayloadBytes]byte
	rng := rand.New(rand.NewSource(seed))
	rng.Read(p[:])
	return p
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, delta := range []float64{0, -24} {
		if err := (Config{Delta: delta}).validate(); err == nil {
			t.Errorf("Delta %v accepted", delta)
		}
	}
}

func TestCodewordRoundTrip(t *testing.T) {
	p := payloadFromSeed(1)
	bits := codeword(p)
	var crcbuf [20]byte
	got, ok := decodeword(&crcbuf, bits[:])
	if !ok {
		t.Fatal("CRC rejected clean codeword")
	}
	if got != p {
		t.Fatal("payload mismatch")
	}
}

func TestCodewordDetectsFlips(t *testing.T) {
	p := payloadFromSeed(2)
	bits := codeword(p)
	var crcbuf [20]byte
	for i := 0; i < codewordBits; i++ {
		bits[i] = !bits[i]
		if got, ok := decodeword(&crcbuf, bits[:]); ok && got == p {
			t.Errorf("single flip at %d undetected", i)
		}
		bits[i] = !bits[i]
	}
}

// twinShift returns the first column rotation cx in 1..tileW-1 under
// which the tile rows of p's codeword read as another CRC-valid word —
// what code phase (0, cx) of an image carrying p at (0, 0) decodes — or
// 0 when p has no twin.
func twinShift(p [PayloadBytes]byte) int {
	bits := codeword(p)
	var votes [codewordBits]float64
	for i, b := range bits {
		votes[i] = -1
		if b {
			votes[i] = 1
		}
	}
	var rows [tileH]uint16
	packRows(&rows, &votes)
	var ring [2 * wordBytes]byte
	for cx := 1; cx < tileW; cx++ {
		assemble(&ring, &rows, cx)
		if _, ok := checkword((*[wordBytes]byte)(ring[:wordBytes])); ok {
			return cx
		}
	}
	return 0
}

// TestTwinPayloadsReadBack: about one payload in 500 has a twin, so an
// image carrying it holds two CRC-valid code phases that read the same
// classes. The reader must return code phase (0, 0), the one Embed
// wrote, at every size — not whichever float rounding favoured (seed
// -175 at 136×118 read its twin at code phase (1, 0)).
func TestTwinPayloadsReadBack(t *testing.T) {
	cfg := DefaultConfig()
	twins := [][PayloadBytes]byte{payloadFromSeed(-175)}
	rng := rand.New(rand.NewSource(500))
	tried := 0
	for ; len(twins) < 6; tried++ {
		var p [PayloadBytes]byte
		rng.Read(p[:])
		if twinShift(p) != 0 {
			twins = append(twins, p)
		}
	}
	if twinShift(twins[0]) != 1 {
		t.Fatal("the fuzz finding's payload has no twin at code phase (0, 1)")
	}
	t.Logf("5 twin payloads in %d random ones", tried)
	for i, p := range twins {
		for _, size := range [][2]int{{136, 118}, {192, 128}} {
			for _, im := range []*photo.Image{photo.SynthRGB(-175, size[0], size[1]), photo.Synth(int64(i), size[0], size[1])} {
				name := fmt.Sprintf("twin %d (%x) in %dx%dx%d", i, p, im.W, im.H, im.Channels)
				marked, err := Embed(im, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Extract(marked, cfg)
				if err != nil || res.Payload != p || res.CodePhaseX != 0 || res.CodePhaseY != 0 {
					t.Errorf("%s: read %x at code phase (%d, %d), %v", name, res.Payload, res.CodePhaseX, res.CodePhaseY, err)
				}
				checkAgainstReference(t, name, marked, cfg)
			}
		}
	}
}

func TestEmbedExtractClean(t *testing.T) {
	cfg := DefaultConfig()
	im := photo.Synth(1, 192, 128)
	p := payloadFromSeed(3)
	wm, err := Embed(im, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtractAligned(wm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Payload != p {
		t.Fatal("payload mismatch on clean aligned extract")
	}
	if res.Margin < 0.5 {
		t.Errorf("clean margin %g suspiciously low", res.Margin)
	}
}

func TestEmbedDoesNotModifyInput(t *testing.T) {
	cfg := DefaultConfig()
	im := photo.Synth(2, 192, 128)
	before := im.Clone()
	if _, err := Embed(im, payloadFromSeed(4), cfg); err != nil {
		t.Fatal(err)
	}
	if !im.Equal(before) {
		t.Error("Embed mutated its input")
	}
}

func TestEmbedImperceptible(t *testing.T) {
	cfg := DefaultConfig()
	im := photo.Synth(3, 192, 128)
	wm, err := Embed(im, payloadFromSeed(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := photo.PSNR(im, wm)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 35 {
		t.Errorf("embedding PSNR %g dB below the 35 dB visibility bar", psnr)
	}
}

func TestEmbedTooSmall(t *testing.T) {
	cfg := DefaultConfig()
	im := photo.Synth(4, 64, 64)
	if _, err := Embed(im, payloadFromSeed(6), cfg); err != ErrTooSmall {
		t.Errorf("got %v, want ErrTooSmall", err)
	}
}

func TestExtractUnwatermarked(t *testing.T) {
	cfg := DefaultConfig()
	im := photo.Synth(5, 192, 128)
	if _, err := ExtractAligned(im, cfg); err == nil {
		t.Error("extracted a payload from an unwatermarked image")
	}
}

func TestExtractFullSearchUnwatermarked(t *testing.T) {
	cfg := DefaultConfig()
	im := photo.Synth(6, 160, 96)
	if _, err := Extract(im, cfg); err == nil {
		t.Error("full search extracted a payload from an unwatermarked image")
	}
}

func TestSurvivesJPEG(t *testing.T) {
	cfg := DefaultConfig()
	im := photo.Synth(7, 192, 128)
	p := payloadFromSeed(7)
	wm, err := Embed(im, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{90, 75, 50} {
		res, err := ExtractAligned(photo.CompressJPEGLike(wm, q), cfg)
		if err != nil {
			t.Errorf("q%d: %v", q, err)
			continue
		}
		if res.Payload != p {
			t.Errorf("q%d: wrong payload", q)
		}
	}
}

func TestSurvivesTint(t *testing.T) {
	cfg := DefaultConfig()
	im := photo.Synth(8, 192, 128)
	p := payloadFromSeed(8)
	wm, err := Embed(im, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		gain, delta float64
	}{
		{"brightness", 1.0, 15},
		{"contrast", 1.12, 0},
		{"both", 1.08, -10},
	} {
		res, err := ExtractAligned(photo.Tint(wm, tc.gain, tc.delta), cfg)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if res.Payload != p {
			t.Errorf("%s: wrong payload", tc.name)
		}
	}
}

func TestSurvivesNoise(t *testing.T) {
	cfg := DefaultConfig()
	im := photo.Synth(9, 192, 128)
	p := payloadFromSeed(9)
	wm, err := Embed(im, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtractAligned(photo.AddNoise(wm, 2, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Payload != p {
		t.Error("wrong payload after noise")
	}
}

func TestSurvivesCrop(t *testing.T) {
	cfg := DefaultConfig()
	im := photo.Synth(10, 256, 160)
	p := payloadFromSeed(10)
	wm, err := Embed(im, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Off-grid crop: both a pixel phase and a codeword phase shift.
	cropped, err := photo.Crop(wm, 13, 11, 192, 120)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Extract(cropped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Payload != p {
		t.Error("wrong payload after crop")
	}
	if res.PixelPhaseX != (8-13%8)%8 && res.PixelPhaseX != 13%8 {
		// The found phase must correspond to the crop offset; accept
		// either convention but require consistency via payload match,
		// which already passed. Log for diagnostics only.
		t.Logf("pixel phase found: (%d,%d)", res.PixelPhaseX, res.PixelPhaseY)
	}
}

func TestSurvivesCropPlusJPEG(t *testing.T) {
	cfg := DefaultConfig()
	im := photo.Synth(11, 256, 160)
	p := payloadFromSeed(11)
	wm, err := Embed(im, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cropped, err := photo.CropFraction(wm, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Extract(photo.CompressJPEGLike(cropped, 80), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Payload != p {
		t.Error("wrong payload after crop+jpeg")
	}
}

func TestMetadataStripLeavesWatermark(t *testing.T) {
	cfg := DefaultConfig()
	im := photo.Synth(12, 192, 128)
	im.Meta.Set(photo.KeyIRSID, "label")
	p := payloadFromSeed(12)
	wm, err := Embed(im, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := photo.StripViaPNM(wm)
	if err != nil {
		t.Fatal(err)
	}
	if stripped.Meta.Len() != 0 {
		t.Fatal("strip failed")
	}
	res, err := ExtractAligned(stripped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Payload != p {
		t.Error("watermark lost with metadata strip (it must be independent)")
	}
}

func TestEraseDefeatsExtraction(t *testing.T) {
	cfg := DefaultConfig()
	im := photo.Synth(13, 192, 128)
	wm, err := Embed(im, payloadFromSeed(13), cfg)
	if err != nil {
		t.Fatal(err)
	}
	erased, err := Erase(wm, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractAligned(erased, cfg); err == nil {
		t.Error("extraction succeeded after erase")
	}
	// Erase must be visually benign too.
	psnr, err := photo.PSNR(wm, erased)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 35 {
		t.Errorf("erase PSNR %g dB too low", psnr)
	}
}

func TestReEmbedOverwrites(t *testing.T) {
	// The §5 attacker: erase the old mark, embed their own.
	cfg := DefaultConfig()
	im := photo.Synth(14, 192, 128)
	orig := payloadFromSeed(14)
	attacker := payloadFromSeed(15)
	wm, err := Embed(im, orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Embed(wm, attacker, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExtractAligned(re, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Payload != attacker {
		t.Error("re-embedding did not take precedence")
	}
}

func TestDistinctPayloadsDistinct(t *testing.T) {
	cfg := DefaultConfig()
	im := photo.Synth(15, 192, 128)
	p1 := payloadFromSeed(16)
	p2 := payloadFromSeed(17)
	w1, err := Embed(im, p1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Embed(im, p2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ExtractAligned(w1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ExtractAligned(w2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Payload != p1 || r2.Payload != p2 {
		t.Error("payload cross-talk")
	}
}

// Property: QIM quantize/soft agree for arbitrary coefficients.
func TestQuickQIMConsistency(t *testing.T) {
	f := func(c float64, bit bool) bool {
		if c != c || c > 1e6 || c < -1e6 { // NaN / extreme guard
			return true
		}
		const delta = 24
		q := qimQuantize(c, delta, bit)
		s := qimSoft(q, delta)
		if bit {
			return s > 0.9
		}
		return s < -0.9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: codeword round-trips for arbitrary payloads.
func TestQuickCodewordRoundTrip(t *testing.T) {
	f := func(p [PayloadBytes]byte) bool {
		bits := codeword(p)
		var crcbuf [20]byte
		got, ok := decodeword(&crcbuf, bits[:])
		return ok && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkEmbed is the custodial path's write kernel at the upload
// benchmark's image size and at a photo-sized one; run with -cpu 1,2 to
// see what the block-row fan-out buys.
func BenchmarkEmbed(b *testing.B) {
	cfg := DefaultConfig()
	p := payloadFromSeed(1)
	for _, dims := range [][2]int{{192, 128}, {1024, 768}} {
		im := photo.Synth(1, dims[0], dims[1])
		b.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Embed(im, p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExtractAligned(b *testing.B) {
	cfg := DefaultConfig()
	im := photo.Synth(1, 192, 128)
	wm, err := Embed(im, payloadFromSeed(1), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractAligned(wm, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractFullSearch(b *testing.B) {
	cfg := DefaultConfig()
	im := photo.Synth(1, 192, 128)
	wm, err := Embed(im, payloadFromSeed(1), cfg)
	if err != nil {
		b.Fatal(err)
	}
	cropped, err := photo.Crop(wm, 5, 3, 160, 96)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(cropped, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEmbedExtractRGB(t *testing.T) {
	// Color photos: embedding operates on luma and must preserve the
	// chroma relationships while surviving the same transforms.
	cfg := DefaultConfig()
	im := photo.SynthRGB(90, 192, 128)
	p := payloadFromSeed(90)
	wm, err := Embed(im, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wm.Channels != 3 {
		t.Fatal("embedding flattened the image to grayscale")
	}
	psnr, err := photo.PSNR(im, wm)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 35 {
		t.Errorf("RGB embed PSNR %.1f dB", psnr)
	}
	res, err := ExtractAligned(wm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Payload != p {
		t.Fatal("RGB payload mismatch")
	}
	// Survives transcode on the color image.
	res, err = ExtractAligned(photo.CompressJPEGLike(wm, 75), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Payload != p {
		t.Error("RGB payload lost after q75 transcode")
	}
}
