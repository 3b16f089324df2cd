// Package watermark embeds the IRS claim identifier into photo pixels.
//
// The paper's label has two halves: explicit metadata and "a watermark
// that encodes the metadata into the pixel data itself while causing
// little or no perceptible distortion", robust "to many benign picture
// manipulations (e.g., compression, cropping, tinting)" (§3.2, citing
// DWT/DCT-domain schemes [2, 6, 18, 24]).
//
// Scheme implemented here:
//
//   - The 128-bit payload (an ids.PhotoID) is extended with a CRC-32 to
//     a 160-bit codeword.
//   - The codeword is laid out on a TileW×TileH grid of 8×8 luma blocks
//     (16×10 = 160 slots) and tiled periodically across the image, so
//     every region of at least TileW·8 × TileH·8 pixels carries a full
//     copy and overlapping copies vote.
//   - Each block carries one bit by quantization index modulation (QIM)
//     of one mid-band DCT coefficient: the coefficient is moved to the
//     nearest point of a lattice with step 2Δ whose phase (0 or Δ)
//     encodes the bit. Mid-band coefficients are naturally small, so the
//     distortion stays below visibility (~40 dB PSNR) and amplitude
//     scaling from tinting stays below the Δ/2 decision margin. No other
//     coefficient changes and the inverse DCT is linear, so embedding
//     adds a multiple of the carrier's basis image to the block and
//     never runs the block transform (requantize).
//   - Extraction searches all 64 pixel phases (crops misalign the 8×8
//     grid) and all 160 codeword phases (crops remove whole block rows/
//     columns), soft-combining votes across tiles and accepting the
//     candidate with a valid CRC and the best margin. It computes only
//     the carrier coefficient of each block, never the whole transform
//     (extract.go).
//
// JPEG-like requantization survives because the embedding step 2Δ is
// chosen well above the Annex-K quantization step for the carrier
// coefficient at the qualities in the benign suite. Geometric rescaling
// is *not* survivable by design — the paper itself relegates heavily
// modified content to the appeals process (Nongoal #3), and E6 reports
// this boundary honestly.
package watermark

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"

	"irs/internal/dct"
	"irs/internal/parallel"
	"irs/internal/photo"
)

// blockRowChunk is the number of 8-pixel block rows one pool task
// processes in Embed. It is a function of nothing — in
// particular not of the worker count — so chunk boundaries, and with
// them every float accumulation order, are identical at any
// parallelism (the determinism contract in internal/parallel).
const blockRowChunk = 4

// serialBelowBlocks is the plane size, in 8×8 blocks, under which Embed
// does not fan out: a block costs ~110 ns, so a small plane is done
// before a second worker has been started and has pulled the plane out
// of the first one's cache. Measured on 2 vCPU: 1,536 blocks (384×256)
// take 150 µs serially and 185 µs fanned out, 3,072 blocks (512×384)
// 450 µs and 250 µs. Like blockRowChunk it depends on the image alone,
// and either way writes the same pixels.
const serialBelowBlocks = 2048

// Config parameterizes the embedder. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Delta is the QIM half-step: lattice step is 2*Delta. Larger is more
	// robust and more visible.
	Delta float64
	// CoefU, CoefV select the carrier coefficient (row, column) in the
	// 8×8 DCT block. Must be a mid-band position, not (0,0).
	CoefU, CoefV int
	// TileW, TileH are the codeword layout dimensions in blocks; their
	// product must equal PayloadBits + 32.
	TileW, TileH int
}

// PayloadBytes is the payload size: a 16-byte photo identifier.
const PayloadBytes = 16

// PayloadBits is the payload size in bits.
const PayloadBits = PayloadBytes * 8

// codewordBits is payload plus CRC-32.
const codewordBits = PayloadBits + 32

// wordBytes is the packed size of a codeword: bit i of the codeword is
// bit 7-i%8 of byte i/8.
const wordBytes = codewordBits / 8

// DefaultConfig returns the tuned production configuration.
func DefaultConfig() Config {
	return Config{Delta: 24, CoefU: 3, CoefV: 2, TileW: 16, TileH: 10}
}

// MinWidth and MinHeight report the smallest image the default config can
// label with at least one full codeword tile.
func (c Config) MinWidth() int  { return c.TileW * 8 }
func (c Config) MinHeight() int { return c.TileH * 8 }

func (c Config) validate() error {
	if c.Delta <= 0 {
		return errors.New("watermark: Delta must be positive")
	}
	if c.CoefU <= 0 && c.CoefV <= 0 {
		return errors.New("watermark: carrier must not be the DC coefficient")
	}
	if c.CoefU < 0 || c.CoefU > 7 || c.CoefV < 0 || c.CoefV > 7 {
		return errors.New("watermark: carrier coefficient outside 8x8 block")
	}
	if c.TileW < 1 || c.TileW > maxTileW {
		return errors.New("watermark: TileW must be between 1 and 40")
	}
	if c.TileW*c.TileH != codewordBits {
		return errors.New("watermark: TileW*TileH must equal 160")
	}
	return nil
}

// maxTileW is the widest tile row the code-phase sweep can hold: a
// row's hard bits are packed into one uint64 and shifted into the
// codeword behind at most 7 pending bits, so TileW+7 must not exceed
// 64. 40 is the largest divisor of 160 under that; the two layouts it
// excludes (80×2, 160×1) would need 640 or 1,280 pixels of width per
// tile.
const maxTileW = 40

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// codeword expands a payload to its 160 coded bits.
func codeword(payload [PayloadBytes]byte) [codewordBits]bool {
	var buf [wordBytes]byte
	copy(buf[:], payload[:])
	binary.BigEndian.PutUint32(buf[PayloadBytes:], crc32.Checksum(payload[:], castagnoli))
	var bits [codewordBits]bool
	for i := range bits {
		bits[i] = buf[i/8]>>(7-uint(i%8))&1 == 1
	}
	return bits
}

// checkword checks the CRC of a packed 160-bit word and returns the
// payload. buf is caller-provided because crc32.Checksum's argument
// escapes: the sweep points it into pooled scratch, so a check
// allocates nothing.
func checkword(buf *[wordBytes]byte) ([PayloadBytes]byte, bool) {
	var payload [PayloadBytes]byte
	copy(payload[:], buf[:PayloadBytes])
	want := binary.BigEndian.Uint32(buf[PayloadBytes:])
	return payload, crc32.Checksum(buf[:PayloadBytes], castagnoli) == want
}

// ErrTooSmall is returned when the image cannot hold one codeword tile.
var ErrTooSmall = errors.New("watermark: image smaller than one codeword tile")

// Embed writes payload into a copy of im and returns it. The input image
// is not modified. Metadata is carried over unchanged — Embed labels
// pixels, not metadata.
func Embed(im *photo.Image, payload [PayloadBytes]byte, cfg Config) (*photo.Image, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if im.W < cfg.MinWidth() || im.H < cfg.MinHeight() {
		return nil, ErrTooSmall
	}
	bits := codeword(payload)
	return rewriteLuma(im, func(luma []float64) { cfg.embedPlane(luma, im.W, im.H, &bits) }), nil
}

// rewriteLuma returns a copy of im whose luma plane has been through
// edit. The plane is pooled scratch: edit must not keep it.
func rewriteLuma(im *photo.Image, edit func(luma []float64)) *photo.Image {
	p := planePool.Get().(*planes)
	defer planePool.Put(p)
	p.luma = im.LumaInto(p.luma)
	edit(p.luma)
	out := im.Clone()
	out.SetLuma(p.luma)
	return out
}

// embedPlane requantizes every whole 8×8 block of a w×h luma plane to
// carry its slot of the tiled codeword.
func (c Config) embedPlane(luma []float64, w, h int, bits *[codewordBits]bool) {
	bw, bh := w/8, h/8
	embedRows := func(_, lo, hi int) {
		for by := lo; by < hi; by++ {
			row := bits[(by%c.TileH)*c.TileW:][:c.TileW]
			for bx := 0; bx < bw; bx++ {
				c.requantize(luma[by*8*w+bx*8:], w, row[bx%c.TileW])
			}
		}
	}
	if bw*bh < serialBelowBlocks {
		embedRows(0, 0, bh)
		return
	}
	// Block rows are independent (each task reads and writes a disjoint
	// band of the luma plane), so the grid fans out across the pool;
	// every block's pixels are a pure function of its input block, so
	// output is byte-identical to the serial scan at any worker count.
	parallel.ForChunks(bh, blockRowChunk, embedRows)
}

// requantize moves the carrier coefficient of the 8×8 block at block[0]
// (row stride as given) to the lattice point that encodes bit. QIM
// changes that one coefficient and the inverse DCT is linear, so the new
// block is the old one plus (c′ − c) times the carrier's basis image:
// the coefficient is read alone (dct.Coef8, bit-identical to the full
// transform's) and the difference added in the sample domain
// (dct.AddBasis8) — 144 multiply-adds where Forward8 → quantize →
// Inverse8 spent 2,048, for the same pixels.
func (c Config) requantize(block []float64, stride int, bit bool) {
	coef := dct.Coef8(block, stride, c.CoefU, c.CoefV)
	dct.AddBasis8(block, stride, c.CoefU, c.CoefV, qimQuantize(coef, c.Delta, bit)-coef)
}

// qimQuantize moves c to the nearest lattice point of step 2Δ with phase
// bit·Δ.
func qimQuantize(c, delta float64, bit bool) float64 {
	off := 0.0
	if bit {
		off = delta
	}
	return math.Round((c-off)/(2*delta))*2*delta + off
}

// qimSoft returns a signed soft decision for coefficient c: negative
// favors bit 0, positive favors bit 1, magnitude is confidence in [0, 1].
func qimSoft(c, delta float64) float64 {
	// Distance to nearest even lattice point (bit 0) and odd (bit 1).
	d0 := math.Abs(c - math.Round(c/(2*delta))*2*delta)
	d1 := math.Abs(c - (math.Round((c-delta)/(2*delta))*2*delta + delta))
	return (d0 - d1) / delta
}

// Result reports a successful extraction.
type Result struct {
	Payload [PayloadBytes]byte
	// Margin is the mean soft-decision confidence of the accepted
	// candidate, in (0, 1]. Higher means a cleaner read.
	Margin float64
	// PixelPhase and CodewordPhase record the alignment at which the
	// codeword was found; useful for diagnostics.
	PixelPhaseX, PixelPhaseY int
	CodePhaseX, CodePhaseY   int
}

// ErrNotFound is returned when no candidate alignment yields a valid
// codeword.
var ErrNotFound = errors.New("watermark: no watermark found")

// Erase overwrites the carrier coefficient of every block with a
// re-quantized random-phase value, destroying any embedded codeword while
// leaving the image visually unchanged. This models the sophisticated
// attacker of §5 who erases the old watermark before re-claiming; tests
// use it to verify that erasure defeats extraction (and that the appeals
// process still catches the copy).
func Erase(im *photo.Image, cfg Config, seed int64) (*photo.Image, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return rewriteLuma(im, func(luma []float64) { cfg.erasePlane(luma, im.W, im.H, seed) }), nil
}

// erasePlane requantizes every whole block of the plane to a bit drawn
// from seed's stream.
func (c Config) erasePlane(luma []float64, w, h int, seed int64) {
	state := uint64(seed)*2862933555777941757 + 3037000493
	for by := 0; by < h/8; by++ {
		for bx := 0; bx < w/8; bx++ {
			state = state*6364136223846793005 + 1442695040888963407
			c.requantize(luma[by*8*w+bx*8:], w, state>>63 == 1)
		}
	}
}
