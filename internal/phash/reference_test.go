package phash

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"irs/internal/dct"
	"irs/internal/photo"
)

// The three-pass reference: the box downscale as it ran before the
// hashes shared one pass over the pixels — each grid summing its own
// cells pixel by pixel (SWAR for gray rows) — kept verbatim as the
// oracle for the prefix-row downscale, with the three hashes built on
// it one after the other.

func sumRowBytes(row []byte) int64 {
	const (
		m8  = 0x00ff00ff00ff00ff
		m16 = 0x0000ffff0000ffff
	)
	var s int64
	for len(row) >= 8 {
		v := binary.LittleEndian.Uint64(row)
		v = v&m8 + v>>8&m8
		v = v&m16 + v>>16&m16
		s += int64(v&0xffffffff + v>>32)
		row = row[8:]
	}
	for _, p := range row {
		s += int64(p)
	}
	return s
}

func sumRowRGB(row []byte) int64 {
	var s int64
	for len(row) >= 3 {
		r, g, b := int32(row[0]), int32(row[1]), int32(row[2])
		s += int64((299*r + 587*g + 114*b) / 1000)
		row = row[3:]
	}
	return s
}

func downscaleInto(dst []float64, im *photo.Image, w, h int) {
	imW, imH := im.W, im.H
	pix := im.Pix
	rgb := im.Channels != 1
	for oy := 0; oy < h; oy++ {
		y0 := oy * imH / h
		y1 := (oy + 1) * imH / h
		if y1 <= y0 {
			y1 = y0 + 1
		}
		ye := y1
		if ye > imH {
			ye = imH
		}
		for ox := 0; ox < w; ox++ {
			x0 := ox * imW / w
			x1 := (ox + 1) * imW / w
			if x1 <= x0 {
				x1 = x0 + 1
			}
			xe := x1
			if xe > imW {
				xe = imW
			}
			var sum int64
			if rgb {
				base := y0 * imW
				for y := y0; y < ye; y++ {
					sum += sumRowRGB(pix[(base+x0)*3 : (base+xe)*3])
					base += imW
				}
			} else {
				base := y0 * imW
				for y := y0; y < ye; y++ {
					sum += sumRowBytes(pix[base+x0 : base+xe])
					base += imW
				}
			}
			dst[oy*w+ox] = float64(sum) / float64((y1-y0)*(x1-x0))
		}
	}
}

func separateSignature(im *photo.Image) Signature {
	var s hashScratch
	var sig Signature
	downscaleInto(s.cells[:64], im, 8, 8)
	sig.A = Hash(meanBits64((*[64]float64)(s.cells[:64])))
	downscaleInto(s.cells[:72], im, 9, 8)
	sig.D = Hash(gradBits72((*[72]float64)(s.cells[:72])))
	downscaleInto(s.cells[:1024], im, 32, 32)
	blk := dct.Block{N: 32, Data: s.cells[:1024]}
	coef := dct.Block{N: 32, Data: s.coef[:1024]}
	dct.Forward2DCorner(&coef, &blk, 9)
	cornerVals(&s.coef, &s.vals)
	sig.P = Hash(signBits64(&s.vals, median64(&s.vals, &s.sort)))
	return sig
}

// checkSignature demands the fused signature and the three single-hash
// entry points all equal the three-pass reference for im.
func checkSignature(t *testing.T, im *photo.Image) {
	t.Helper()
	want := separateSignature(im)
	if got := NewSignature(im); got != want {
		t.Errorf("%dx%dx%d: NewSignature = %016x, three-pass reference %016x", im.W, im.H, im.Channels, got, want)
	}
	if got := (Signature{A: AHash(im), D: DHash(im), P: PHash(im)}); got != want {
		t.Errorf("%dx%dx%d: AHash/DHash/PHash = %016x, three-pass reference %016x", im.W, im.H, im.Channels, got, want)
	}
}

// noiseImage fills a w×h image with uniform random bytes: box means of
// noise sit close together, so a cell off by one unit in the last place
// flips a threshold bit.
func noiseImage(rng *rand.Rand, w, h, channels int) *photo.Image {
	im := photo.NewGray(w, h)
	if channels == 3 {
		im = photo.NewRGB(w, h)
	}
	rng.Read(im.Pix)
	return im
}

// TestSignatureMatchesSeparateHashes sweeps the geometry: every width
// and height from 1 to 72 — below, at and above each grid's 8, 9 and 32
// cells on either axis, so one-pixel-wide cells, shared edges and
// cells wider than the image all occur — then random sizes to 512, in
// gray and in colour, and the empty images a caller can construct.
func TestSignatureMatchesSeparateHashes(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for h := 1; h <= 72; h++ {
		for w := 1; w <= 72; w++ {
			checkSignature(t, noiseImage(rng, w, h, 1))
			checkSignature(t, noiseImage(rng, w, h, 3))
		}
		if t.Failed() {
			return
		}
	}
	n := 150
	if testing.Short() {
		n = 30
	}
	for i := 0; i < n; i++ {
		w, h := 1+rng.Intn(512), 1+rng.Intn(512)
		checkSignature(t, photo.Synth(rng.Int63(), w, h))
		checkSignature(t, photo.SynthRGB(rng.Int63(), w, h))
		checkSignature(t, noiseImage(rng, w, h, 1+2*(i%2)))
	}
	for _, dims := range [][2]int{{0, 0}, {0, 5}, {7, 0}} {
		checkSignature(t, photo.NewGray(dims[0], dims[1]))
		checkSignature(t, photo.NewRGB(dims[0], dims[1]))
	}
}

// TestDownscaleRowIsOrderW pins the fused pass's working set: one
// prefix row of W+1 sums whatever the height, never a W×H table.
func TestDownscaleRowIsOrderW(t *testing.T) {
	var s hashScratch
	im := photo.NewGray(300, 4000)
	s.downscale(im, gridA, gridD, gridP)
	if len(s.row) != im.W+1 || cap(s.row) != im.W+1 {
		t.Errorf("prefix row holds %d (cap %d) sums for a %d-wide image, want %d", len(s.row), cap(s.row), im.W, im.W+1)
	}
}
