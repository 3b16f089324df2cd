package watermark

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"irs/internal/dct"
	"irs/internal/parallel"
	"irs/internal/photo"
)

// decodeword checks the CRC of 160 hard bits and returns the payload:
// the one-bool-per-bit form of checkword the reference scan uses.
func decodeword(buf *[20]byte, bits []bool) ([PayloadBytes]byte, bool) {
	*buf = [20]byte{}
	for i, b := range bits {
		if b {
			buf[i/8] |= 1 << (7 - uint(i%8))
		}
	}
	return checkword(buf)
}

// refSearchPixelPhase is the original per-phase scan, kept verbatim as
// the oracle for the single-coefficient kernel and the CRC-first sweep:
// a full 2-D DCT of every block, then a fresh O(blocks) vote
// accumulation, margin and CRC for every one of the 160 codeword
// phases. One change: every code phase is scored with the margin of
// code phase (0, 0), whose slots are the classes in order, so that code
// phases tie exactly (see Config.margin).
func refSearchPixelPhase(luma []float64, w, px, py, bw, bh int, cfg Config) (c phaseCandidate) {
	src := dct.NewBlock(8)
	coef := dct.NewBlock(8)
	ci := cfg.CoefU*8 + cfg.CoefV
	votes := make([]float64, codewordBits)
	counts := make([]int, codewordBits)
	hard := make([]bool, codewordBits)
	soft := make([]float64, bw*bh)
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			loadBlock(src, luma, w, px+bx*8, py+by*8)
			dct.Forward2D(coef, src)
			soft[by*bw+bx] = qimSoft(coef.Data[ci], cfg.Delta)
		}
	}
	c.res = Result{Margin: -1}
	var phaseMargin float64
	for cy := 0; cy < cfg.TileH; cy++ {
		for cx := 0; cx < cfg.TileW; cx++ {
			for i := range votes {
				votes[i] = 0
				counts[i] = 0
			}
			for by := 0; by < bh; by++ {
				row := ((by + cy) % cfg.TileH) * cfg.TileW
				for bx := 0; bx < bw; bx++ {
					idx := row + (bx+cx)%cfg.TileW
					votes[idx] += soft[by*bw+bx]
					counts[idx]++
				}
			}
			covered := true
			var margin float64
			for i := range votes {
				if counts[i] == 0 {
					covered = false
					break
				}
				hard[i] = votes[i] > 0
				m := votes[i] / float64(counts[i])
				if m < 0 {
					m = -m
				}
				margin += m
			}
			if !covered {
				continue
			}
			margin /= codewordBits
			if cy == 0 && cx == 0 { // covered here iff at every code phase
				phaseMargin = margin
			}
			payload, ok := decodeword(new([20]byte), hard)
			if ok && phaseMargin > c.res.Margin {
				c.res = Result{
					Payload:     payload,
					Margin:      phaseMargin,
					PixelPhaseX: px, PixelPhaseY: py,
					CodePhaseX: cx, CodePhaseY: cy,
				}
				c.found = true
			}
		}
	}
	return c
}

// refExtract is Extract as the reference computes it: every pixel phase
// in py-major order through refSearchPixelPhase, first best wins.
func refExtract(im *photo.Image, cfg Config) (Result, error) {
	luma := im.Luma()
	best := Result{Margin: -1}
	found := false
	for py := 0; py < 8; py++ {
		for px := 0; px < 8; px++ {
			bw, bh := (im.W-px)/8, (im.H-py)/8
			if bw < 1 || bh < 1 {
				continue
			}
			c := refSearchPixelPhase(luma, im.W, px, py, bw, bh, cfg)
			if c.found && c.res.Margin > best.Margin {
				best, found = c.res, true
			}
		}
	}
	if !found {
		return Result{}, ErrNotFound
	}
	return best, nil
}

// refExtractAligned is the aligned read as it was before it shared the
// search's kernel: full transform per block, one vote pass, one CRC.
func refExtractAligned(im *photo.Image, cfg Config) (Result, error) {
	luma := im.Luma()
	src, coef := dct.NewBlock(8), dct.NewBlock(8)
	ci := cfg.CoefU*8 + cfg.CoefV
	bw, bh := im.W/8, im.H/8
	var votes [codewordBits]float64
	var counts [codewordBits]int
	for by := 0; by < bh; by++ {
		row := (by % cfg.TileH) * cfg.TileW
		for bx := 0; bx < bw; bx++ {
			loadBlock(src, luma, im.W, bx*8, by*8)
			dct.Forward2D(coef, src)
			idx := row + bx%cfg.TileW
			votes[idx] += qimSoft(coef.Data[ci], cfg.Delta)
			counts[idx]++
		}
	}
	var hard [codewordBits]bool
	var margin float64
	for i := range votes {
		if counts[i] == 0 {
			return Result{}, ErrTooSmall
		}
		hard[i] = votes[i] > 0
		m := votes[i] / float64(counts[i])
		if m < 0 {
			m = -m
		}
		margin += m
	}
	payload, ok := decodeword(new([20]byte), hard[:])
	if !ok {
		return Result{}, ErrNotFound
	}
	return Result{Payload: payload, Margin: margin / codewordBits}, nil
}

// checkAgainstReference asserts that all three entry points return
// exactly what the reference does for im: payload, Margin to the bit,
// the four phase fields, and the same error.
func checkAgainstReference(t *testing.T, name string, im *photo.Image, cfg Config) {
	t.Helper()
	wantA, wantAErr := refExtractAligned(im, cfg)
	gotA, gotAErr := ExtractAligned(im, cfg)
	if gotA != wantA || !errors.Is(gotAErr, wantAErr) {
		t.Errorf("%s: ExtractAligned = %+v, %v; reference %+v, %v", name, gotA, gotAErr, wantA, wantAErr)
	}
	wantF, wantFErr := refExtract(im, cfg)
	gotF, gotFErr := Extract(im, cfg)
	if gotF != wantF || !errors.Is(gotFErr, wantFErr) {
		t.Errorf("%s: Extract = %+v, %v; reference %+v, %v", name, gotF, gotFErr, wantF, wantFErr)
	}
	if wantAErr == nil {
		wantF, wantFErr = wantA, nil
	}
	gotB, gotBErr := ExtractFallback(im, cfg)
	if gotB != wantF || !errors.Is(gotBErr, wantFErr) {
		t.Errorf("%s: ExtractFallback = %+v, %v; reference %+v, %v", name, gotB, gotBErr, wantF, wantFErr)
	}
}

// kernelConfigs are the default and the non-default shapes the kernel
// must handle: another carrier, and tile widths that are not a multiple
// of 8 (rows straddle byte boundaries in the assembled word).
func kernelConfigs() map[string]Config {
	return map[string]Config{
		"default":   DefaultConfig(),
		"carrier24": {Delta: 24, CoefU: 2, CoefV: 4, TileW: 16, TileH: 10},
		"tile10x16": {Delta: 24, CoefU: 3, CoefV: 2, TileW: 10, TileH: 16},
		"tile20x8":  {Delta: 24, CoefU: 1, CoefV: 3, TileW: 20, TileH: 8},
	}
}

// TestSearchPixelPhaseBitIdentical pins the kernel to the scan it
// replaced, one pixel phase at a time: identical candidate, margin
// (exactly) and phase coordinates at all 64 phases, on watermarked,
// cropped and unmarked inputs, for every config shape.
func TestSearchPixelPhaseBitIdentical(t *testing.T) {
	for cname, cfg := range kernelConfigs() {
		base := photo.Synth(31, 200, 152)
		marked, err := Embed(base, [PayloadBytes]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cropped, err := photo.Crop(marked, 13, 9, 176, 140)
		if err != nil {
			t.Fatal(err)
		}
		rgb, err := Embed(photo.SynthRGB(32, 200, 152), [PayloadBytes]byte{16, 15, 14}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rgb, err = photo.Crop(rgb, 5, 3, 190, 145); err != nil {
			t.Fatal(err)
		}
		for name, im := range map[string]*photo.Image{
			"aligned":     marked,
			"cropped":     cropped,
			"rgb-cropped": rgb,
			"unmarked":    base,
		} {
			p, luma := new(planes), im.Luma()
			rows := p.rowPass(p.luma8(im), im.W, im.H, cfg.CoefV)
			var s bandScratch
			hits := 0
			for py := 0; py < 8; py++ {
				bh := (im.H - py) / 8
				s.vote(rows, im.W, py, bh, cfg)
				for px := 0; px < 8; px++ {
					bw := (im.W - px) / 8
					got := s.sweep(px, py, bw, bh, cfg)
					want := refSearchPixelPhase(luma, im.W, px, py, bw, bh, cfg)
					if got.found != want.found || got.res != want.res {
						t.Errorf("%s/%s phase (%d,%d): got %+v found=%v, reference %+v found=%v",
							cname, name, px, py, got.res, got.found, want.res, want.found)
					}
					if want.found {
						hits++
					}
				}
			}
			if (hits > 0) != (name != "unmarked") {
				t.Errorf("%s/%s: %d phases read a codeword", cname, name, hits)
			}
		}
	}
}

// TestExtractMatchesReference runs the E6 transform matrix (plus crops
// at odd offsets, an unmarked and an erased image, and a colour image)
// through the three entry points and the reference.
func TestExtractMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	base := photo.Synth(41, 192, 128)
	marked, err := Embed(base, payloadFromSeed(41), cfg)
	if err != nil {
		t.Fatal(err)
	}
	erased, err := Erase(marked, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	rgb, err := Embed(photo.SynthRGB(42, 192, 128), payloadFromSeed(42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	crop := func(im *photo.Image, x0, y0, w, h int) *photo.Image {
		c, err := photo.Crop(im, x0, y0, w, h)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := map[string]*photo.Image{
		"unmarked":       base,
		"erased":         erased,
		"rgb":            rgb,
		"rgb-crop":       crop(rgb, 3, 5, 180, 115),
		"crop-1-1":       crop(marked, 1, 1, 190, 126),
		"crop-13-11":     crop(marked, 13, 11, 166, 106),
		"crop-7-9-tight": crop(marked, 7, 9, 135, 87),
		"crop+jpeg80":    photo.CompressJPEGLike(crop(marked, 13, 11, 166, 106), 80),
		"crop+jpeg90":    photo.CompressJPEGLike(crop(marked, 5, 3, 184, 120), 90),
		"jpeg-q70":       photo.CompressJPEGLike(marked, 70),
		"crop+tint":      photo.Tint(crop(marked, 9, 2, 176, 120), 1.15, 0),
		"crop+noise":     photo.AddNoise(crop(marked, 2, 15, 176, 104), 2, 42),
		"sub-tile":       crop(marked, 0, 0, 127, 79),
		"sub-block":      crop(marked, 0, 0, 7, 7),
	}
	for _, tr := range photo.BenignTransforms() {
		out, err := tr.Apply(marked)
		if err != nil {
			t.Fatal(err)
		}
		cases[tr.Name] = out
	}
	scaled, err := photo.Scale(marked, marked.W*3/4, marked.H*3/4)
	if err != nil {
		t.Fatal(err)
	}
	cases["scale-75"] = scaled
	for name, im := range cases {
		checkAgainstReference(t, name, im, cfg)
	}
	// The non-default shapes, whole-call: a crop that keeps one tile of
	// each.
	for cname, cfg := range kernelConfigs() {
		wm, err := Embed(photo.Synth(43, 200, 152), payloadFromSeed(43), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, cname+"/crop", crop(wm, 11, 6, 180, 143), cfg)
	}
}

// FuzzExtractMatchesReference: any image size and crop, marked when it
// can be, must read the same through the kernel and the reference.
func FuzzExtractMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(192), uint8(128), uint8(0), uint8(0))
	f.Add(int64(2), uint8(192), uint8(128), uint8(5), uint8(3))
	f.Add(int64(3), uint8(150), uint8(100), uint8(9), uint8(14))
	f.Add(int64(4), uint8(135), uint8(87), uint8(0), uint8(0))
	f.Add(int64(5), uint8(20), uint8(9), uint8(1), uint8(1))
	f.Add(int64(6), uint8(255), uint8(95), uint8(7), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, w, h, cropX, cropY uint8) {
		if w < 1 || h < 1 {
			t.Skip()
		}
		cfg := DefaultConfig()
		im := photo.Synth(seed, int(w), int(h))
		if wm, err := Embed(im, payloadFromSeed(seed), cfg); err == nil {
			im = wm
		}
		x0, y0 := int(cropX)%16, int(cropY)%16
		if x0 < im.W && y0 < im.H {
			c, err := photo.Crop(im, x0, y0, im.W-x0, im.H-y0)
			if err != nil {
				t.Fatal(err)
			}
			im = c
		}
		checkAgainstReference(t, fmt.Sprintf("seed %d %dx%d crop (%d,%d)", seed, w, h, x0, y0), im, cfg)
	})
}

// TestAssembleMatchesSlotOrder checks the sweep's word for every code
// phase — packed rows, rotated and doubled, then windowed — against the
// slot-by-slot definition, for every tile width validate accepts (most
// are not a multiple of 8, so rows and windows straddle bytes).
func TestAssembleMatchesSlotOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	widths := 0
	for tileW := 1; tileW <= codewordBits; tileW++ {
		cfg := Config{Delta: 24, CoefU: 3, CoefV: 2, TileW: tileW, TileH: codewordBits / tileW}
		if cfg.validate() != nil {
			continue
		}
		widths++
		var votes [codewordBits]float64
		for i := range votes {
			votes[i] = rng.Float64() - 0.5
		}
		var rows [codewordBits]uint64
		cfg.packRows(&rows, &votes)
		for cx := 0; cx < cfg.TileW; cx++ {
			var ring [2 * wordBytes]byte
			for i := range ring {
				ring[i] = 0xAA // every byte must be overwritten
			}
			cfg.assemble(&ring, &rows, cx)
			for cy := 0; cy < cfg.TileH; cy++ {
				var want, buf [wordBytes]byte
				for r := 0; r < cfg.TileH; r++ {
					for c := 0; c < cfg.TileW; c++ {
						r0, c0 := (r-cy+cfg.TileH)%cfg.TileH, (c-cx+cfg.TileW)%cfg.TileW
						if i := r*cfg.TileW + c; votes[r0*cfg.TileW+c0] > 0 {
							want[i/8] |= 1 << (7 - uint(i%8))
						}
					}
				}
				got := window(&buf, &ring, (codewordBits-cy*cfg.TileW)%codewordBits)
				if *got != want {
					t.Fatalf("TileW %d code phase (%d,%d): word %x, want %x", tileW, cx, cy, *got, want)
				}
			}
		}
	}
	if widths != 10 {
		t.Errorf("%d tile widths accepted, want 10 (1, 2, 4, 5, 8, 10, 16, 20, 32, 40)", widths)
	}
}

// TestExtractZeroAllocSearch pins the pooled band scratch: after
// warmup, searching the eight pixel phases of one band allocates
// nothing.
func TestExtractZeroAllocSearch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	cfg := DefaultConfig()
	im := photo.Synth(32, 160, 120)
	marked, err := Embed(im, [PayloadBytes]byte{9}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := new(planes)
	rows := p.rowPass(p.luma8(marked), marked.W, marked.H, cfg.CoefV)
	if !searchBand(rows, marked.W, marked.H, 0, cfg).found { // warms the pool
		t.Fatal("band 0 of an aligned image read nothing")
	}
	if n := testing.AllocsPerRun(10, func() {
		searchBand(rows, marked.W, marked.H, 0, cfg)
	}); n != 0 {
		t.Errorf("searchBand allocates %v times per call, want 0", n)
	}
}

// TestExtractSteadyStateAllocs is the whole-call ceiling: with the
// pools warm an aligned read of a gray image allocates nothing, and a
// full search of an unmarked image — aligned attempt included — neither
// a luma nor a row plane, only the fan-out's few small objects.
func TestExtractSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	// A collection empties the pools mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := DefaultConfig()
	im := photo.Synth(34, 192, 128)
	marked, err := Embed(im, payloadFromSeed(34), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractAligned(marked, cfg); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = ExtractAligned(marked, cfg) }); n != 0 {
		t.Errorf("ExtractAligned of a gray image allocates %v times per call, want 0", n)
	}
	run := func() {
		if _, err := ExtractFallback(im, cfg); !errors.Is(err, ErrNotFound) {
			t.Fatalf("unmarked image: %v", err)
		}
	}
	run()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("ExtractFallback steady state: %.1f allocs, %.0f B per call", allocs, bytes)
	if plane := float64(im.W * im.H * 8); allocs > 8 || bytes > plane/16 {
		t.Errorf("ExtractFallback allocates %.1f objects / %.0f B per call, want ≤ 8 objects and < %.0f B (1/16 of one plane)",
			allocs, bytes, plane/16)
	}
}

func BenchmarkEmbedExtract(b *testing.B) {
	cfg := DefaultConfig()
	im := photo.Synth(33, 256, 192)
	payload := [PayloadBytes]byte{42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marked, err := Embed(im, payload, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ExtractAligned(marked, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractFull is the kernel's micro-number beside the
// end-to-end one: the full 64×160-phase search of an unmarked 192×128
// upload, the case every unlabeled image pays.
func BenchmarkExtractFull(b *testing.B) {
	cfg := DefaultConfig()
	im := photo.Synth(34, 192, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(im, cfg); !errors.Is(err, ErrNotFound) {
			b.Fatal(err)
		}
	}
}
