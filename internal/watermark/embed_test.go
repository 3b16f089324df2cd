package watermark

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"irs/internal/dct"
	"irs/internal/parallel"
	"irs/internal/photo"
)

// The write side's oracles: Embed and Erase as they were before they
// shared the reader's single-coefficient kernel — every block through
// Forward8, one coefficient requantized, the whole block back through
// Inverse8 — kept verbatim (minus the worker pool, which never changed a
// pixel). They return the luma plane they wrote next to the image.

func loadBlock(dst *dct.Block, luma []float64, w, x0, y0 int) {
	for r := 0; r < 8; r++ {
		copy(dst.Data[r*8:(r+1)*8], luma[(y0+r)*w+x0:(y0+r)*w+x0+8])
	}
}

func storeBlock(luma []float64, w, x0, y0 int, src *dct.Block) {
	for r := 0; r < 8; r++ {
		copy(luma[(y0+r)*w+x0:(y0+r)*w+x0+8], src.Data[r*8:(r+1)*8])
	}
}

func refEmbed(im *photo.Image, payload [PayloadBytes]byte, cfg Config) (*photo.Image, []float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if im.W < cfg.MinWidth() || im.H < cfg.MinHeight() {
		return nil, nil, ErrTooSmall
	}
	bits := codeword(payload)
	out := im.Clone()
	luma := im.Luma()
	bw, bh := im.W/8, im.H/8
	ci := cfg.CoefU*8 + cfg.CoefV
	src, coef := dct.NewBlock(8), dct.NewBlock(8)
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			loadBlock(src, luma, im.W, bx*8, by*8)
			dct.Forward8(coef, src)
			bit := bits[(by%cfg.TileH)*cfg.TileW+bx%cfg.TileW]
			coef.Data[ci] = qimQuantize(coef.Data[ci], cfg.Delta, bit)
			dct.Inverse8(src, coef)
			storeBlock(luma, im.W, bx*8, by*8, src)
		}
	}
	out.SetLuma(luma)
	return out, luma, nil
}

func refErase(im *photo.Image, cfg Config, seed int64) (*photo.Image, []float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	out := im.Clone()
	luma := im.Luma()
	src, coef := dct.NewBlock(8), dct.NewBlock(8)
	ci := cfg.CoefU*8 + cfg.CoefV
	state := uint64(seed)*2862933555777941757 + 3037000493
	bw, bh := im.W/8, im.H/8
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			loadBlock(src, luma, im.W, bx*8, by*8)
			dct.Forward8(coef, src)
			state = state*6364136223846793005 + 1442695040888963407
			coef.Data[ci] = qimQuantize(coef.Data[ci], cfg.Delta, state>>63 == 1)
			dct.Inverse8(src, coef)
			storeBlock(luma, im.W, bx*8, by*8, src)
		}
	}
	out.SetLuma(luma)
	return out, luma, nil
}

// embedPlane and erasePlane are the writer's rank-1 update over a whole
// float64 luma plane, as Embed and Erase ran it before they read and
// wrote 8-bit pixels one block at a time: the float samples they leave
// are what checkEmbedAgainstReference holds to the reference's.
func (c Config) embedPlane(luma []float64, w, h int, bits *[codewordBits]bool) {
	for by := 0; by < h/8; by++ {
		row := bits[(by%c.TileH)*c.TileW:][:c.TileW]
		for bx := 0; bx < w/8; bx++ {
			c.requantize(luma[by*8*w+bx*8:], w, row[bx%c.TileW])
		}
	}
}

func (c Config) erasePlane(luma []float64, w, h int, seed int64) {
	state := uint64(seed)*2862933555777941757 + 3037000493
	for by := 0; by < h/8; by++ {
		for bx := 0; bx < w/8; bx++ {
			state = state*6364136223846793005 + 1442695040888963407
			c.requantize(luma[by*8*w+bx*8:], w, state>>63 == 1)
		}
	}
}

// lumaTolerance bounds how far a sample of the rank-1 update may sit
// from the Forward8/Inverse8 round trip's: both are the same real
// number computed two ways, each good to ~1e-13 on 8-bit input.
const lumaTolerance = 1e-9

// checkEmbedAgainstReference embeds and erases im both ways and demands
// byte-identical pixels, luma planes within lumaTolerance, and the
// reference's own errors. A pixel that differs is a finding: the message
// carries what is needed to reproduce it.
func checkEmbedAgainstReference(t *testing.T, name string, im *photo.Image, cfg Config, seed int64) {
	t.Helper()
	payload := payloadFromSeed(seed)
	before := append([]byte(nil), im.Pix...)

	want, wantLuma, wantErr := refEmbed(im, payload, cfg)
	got, gotErr := Embed(im, payload, cfg)
	if gotErr != wantErr {
		t.Fatalf("%s: Embed error %v, reference %v", name, gotErr, wantErr)
	}
	if wantErr == nil {
		comparePixels(t, name+": Embed", got, want)
		luma := im.Luma()
		bits := codeword(payload)
		cfg.embedPlane(luma, im.W, im.H, &bits)
		comparePlanes(t, name+": Embed", luma, wantLuma, im.W)
		// What a reader sees must not depend on which embedder wrote it.
		gotRes, gotErr := Extract(got, cfg)
		wantRes, wantErr := Extract(want, cfg)
		if gotRes != wantRes || gotErr != wantErr {
			t.Errorf("%s: Extract of the embedded image = %+v, %v; of the reference's %+v, %v", name, gotRes, gotErr, wantRes, wantErr)
		}
		if wantErr == nil && wantRes.Payload != payload {
			t.Errorf("%s: reference embed does not read back its payload", name)
		}
	}

	want, wantLuma, wantErr = refErase(im, cfg, seed)
	got, gotErr = Erase(im, cfg, seed)
	if gotErr != wantErr {
		t.Fatalf("%s: Erase error %v, reference %v", name, gotErr, wantErr)
	}
	comparePixels(t, name+": Erase", got, want)
	luma := im.Luma()
	cfg.erasePlane(luma, im.W, im.H, seed)
	comparePlanes(t, name+": Erase", luma, wantLuma, im.W)

	if !bytes.Equal(before, im.Pix) {
		t.Errorf("%s: the input image was modified", name)
	}
}

func comparePixels(t *testing.T, name string, got, want *photo.Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H || got.Channels != want.Channels {
		t.Fatalf("%s: %dx%dx%d, reference %dx%dx%d", name, got.W, got.H, got.Channels, want.W, want.H, want.Channels)
	}
	for i := range want.Pix {
		if got.Pix[i] != want.Pix[i] {
			p := i / want.Channels
			t.Errorf("%s: byte %d (pixel %d,%d channel %d) = %d, reference %d",
				name, i, p%want.W, p/want.W, i%want.Channels, got.Pix[i], want.Pix[i])
			return
		}
	}
}

func comparePlanes(t *testing.T, name string, got, want []float64, w int) {
	t.Helper()
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= lumaTolerance) {
			t.Errorf("%s: luma (%d,%d) = %v, reference %v (off by %g)", name, i%w, i/w, got[i], want[i], d)
			return
		}
	}
}

// flat returns a w×h image of one value: 0 and 255 put every sample the
// embedder moves against the clamp.
func flat(w, h, channels int, v byte) *photo.Image {
	im := photo.NewGray(w, h)
	if channels == 3 {
		im = photo.NewRGB(w, h)
	}
	for i := range im.Pix {
		im.Pix[i] = v
	}
	return im
}

// TestEmbedMatchesReference is the write side's differential matrix:
// gray and colour, clamped extremes, sizes that leave partial blocks,
// the four config shapes, at worker counts on both sides of the
// fan-out.
func TestEmbedMatchesReference(t *testing.T) {
	type input struct {
		name string
		im   *photo.Image
	}
	// Every size holds one tile of every shape (tile20x8 needs 160×64,
	// tile10x16 80×128). 203×131 and 167×141 leave a partial block on
	// both edges; 523×267 does too and, at 2,145 blocks, is past
	// serialBelowBlocks, so its rows go through the pool.
	inputs := []input{
		{"gray-192x128", photo.Synth(51, 192, 128)},
		{"rgb-192x128", photo.SynthRGB(52, 192, 128)},
		{"gray-203x131", photo.Synth(53, 203, 131)},
		{"rgb-167x141", photo.SynthRGB(54, 167, 141)},
		{"gray-523x267", photo.Synth(55, 523, 267)},
		{"rgb-523x267", photo.SynthRGB(56, 523, 267)},
		{"noise", photo.AddNoise(photo.Synth(57, 200, 150), 40, 9)},
		{"tinted-rgb", photo.Tint(photo.SynthRGB(58, 200, 150), 1.3, 25)},
		{"black-gray", flat(176, 136, 1, 0)},
		{"white-gray", flat(176, 136, 1, 255)},
		{"black-rgb", flat(176, 136, 3, 0)},
		{"white-rgb", flat(176, 136, 3, 255)},
		{"too-small", photo.Synth(59, 100, 60)},
		{"sub-block", photo.Synth(60, 7, 5)},
	}
	for _, workers := range []int{1, 2, 8} {
		prev := parallel.SetWorkers(workers)
		for cname, cfg := range kernelConfigs() {
			for i, in := range inputs {
				checkEmbedAgainstReference(t, fmt.Sprintf("workers=%d/%s/%s", workers, cname, in.name), in.im, cfg, int64(i))
			}
		}
		parallel.SetWorkers(prev)
	}
}

// TestEmbedMatchesReferenceRandom sweeps random sizes and contents
// (plain, noisy, tinted, colour) at the default config.
func TestEmbedMatchesReferenceRandom(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 20
	}
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < n; i++ {
		seed := rng.Int63()
		w, h := cfg.MinWidth()+rng.Intn(140), cfg.MinHeight()+rng.Intn(140)
		var im *photo.Image
		switch i % 4 {
		case 0:
			im = photo.Synth(seed, w, h)
		case 1:
			im = photo.SynthRGB(seed, w, h)
		case 2:
			im = photo.AddNoise(photo.Synth(seed, w, h), 1+rng.Float64()*60, seed)
		case 3:
			im = photo.Tint(photo.SynthRGB(seed, w, h), 0.6+rng.Float64(), -40+rng.Float64()*80)
		}
		checkEmbedAgainstReference(t, fmt.Sprintf("random %d: seed %d %dx%dx%d", i, seed, w, h, im.Channels), im, cfg, seed)
	}
}

// FuzzEmbedMatchesReference: any seed and size, gray or colour by the
// seed's parity, must embed and erase to the reference's pixels.
func FuzzEmbedMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(192), uint16(128))
	f.Add(int64(2), uint16(192), uint16(128))
	f.Add(int64(3), uint16(128), uint16(80))
	f.Add(int64(4), uint16(131), uint16(87))
	f.Add(int64(5), uint16(300), uint16(81))
	f.Add(int64(6), uint16(20), uint16(9))
	f.Fuzz(func(t *testing.T, seed int64, w, h uint16) {
		// Bounded so one input costs milliseconds; 400×400 is already 2,500
		// blocks, well past the fan-out threshold.
		if w < 1 || h < 1 || w > 400 || h > 400 {
			t.Skip()
		}
		im := photo.Synth(seed, int(w), int(h))
		if seed&1 == 1 {
			im = photo.SynthRGB(seed, int(w), int(h))
		}
		checkEmbedAgainstReference(t, fmt.Sprintf("seed %d %dx%dx%d", seed, w, h, im.Channels), im, DefaultConfig(), seed)
	})
}

// cloneSink keeps the clones TestEmbedSteadyStateAllocs measures on the
// heap, where Embed's copy goes.
var cloneSink *photo.Image

// TestEmbedSteadyStateAllocs: with the plane pool warm, Embed allocates
// the image it returns (pixels, metadata, the struct) and nothing else:
// exactly what Clone allocates, gray and RGB, below the fan-out and
// past it.
func TestEmbedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	// A collection empties the pool; two in one measurement, likely when
	// `go test ./...` loads the host, charged a whole plane to it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := DefaultConfig()
	payload := payloadFromSeed(35)
	perCall := func(f func()) (allocs, bytes float64) {
		f()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	for _, im := range []*photo.Image{photo.Synth(35, 192, 128), photo.SynthRGB(36, 192, 128), photo.Synth(37, 523, 267)} {
		im.Meta.Set(photo.KeyIRSLedgerURL, "http://ledger.example")
		cloneAllocs, cloneBytes := perCall(func() { cloneSink = im.Clone() })
		for _, workers := range []int{1, 2} {
			prev := parallel.SetWorkers(workers)
			allocs, bytes := perCall(func() {
				if _, err := Embed(im, payload, cfg); err != nil {
					t.Fatal(err)
				}
			})
			parallel.SetWorkers(prev)
			t.Logf("%dx%dx%d workers=%d: Embed %.1f allocs, %.0f B per call; Clone %.1f, %.0f B",
				im.W, im.H, im.Channels, workers, allocs, bytes, cloneAllocs, cloneBytes)
			// sync.Pool grows its per-P chain (two objects, ~180 B) when
			// the goroutine lands on a P it has not used, at most a
			// couple of times in a measurement. Past serialBelowBlocks
			// the fan-out adds its closure, the codeword copy its tasks
			// share and the pool's few small objects.
			slackAllocs, slackBytes := 0.25, 32.0
			if (im.W/8)*(im.H/8) >= serialBelowBlocks {
				slackAllocs, slackBytes = 16, 1024
			}
			if allocs > cloneAllocs+slackAllocs || bytes > cloneBytes+slackBytes {
				t.Errorf("%dx%dx%d workers=%d: Embed allocates %.1f objects / %.0f B per call, want what Clone does (%.1f / %.0f B) plus %.0f / %.0f B",
					im.W, im.H, im.Channels, workers, allocs, bytes, cloneAllocs, cloneBytes, slackAllocs, slackBytes)
			}
		}
	}
}
