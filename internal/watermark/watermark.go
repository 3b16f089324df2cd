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
//   - The codeword is laid out on a 16×10 grid of 8×8 luma blocks (160
//     slots) and tiled periodically across the image, so every region
//     of at least 128×80 pixels carries a full copy and overlapping
//     copies vote.
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

// serialBelowBlocks is the image size, in 8×8 blocks, under which Embed
// does not fan out: a block costs ~110 ns, so a small image is done
// before a second worker has been started and has pulled its pixels
// out of the first one's cache. Measured on 2 vCPU: 1,536 blocks (384×256)
// take 150 µs serially and 185 µs fanned out, 3,072 blocks (512×384)
// 450 µs and 250 µs. Like blockRowChunk it depends on the image alone,
// and either way writes the same pixels.
const serialBelowBlocks = 2048

// The label format (PROTOCOL.md §Watermark): the codeword is laid out
// row-major on a tileW×tileH grid of 8×8 blocks, and each block carries
// its bit in DCT coefficient (coefU, coefV). Every labeled photo and
// every reader must agree on them, so they are constants; changing one
// is a format revision.
const (
	tileW, tileH = 16, 10
	coefU, coefV = 3, 2
	// minWidth and minHeight are the smallest image holding one tile.
	minWidth, minHeight = tileW * 8, tileH * 8
)

// Config parameterizes the embedder and the reader. The zero value is
// not valid; use DefaultConfig.
type Config struct {
	// Delta is the QIM half-step: lattice step is 2*Delta. Larger is more
	// robust and more visible.
	Delta float64
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

// A tile is one codeword, and a tile row one uint16 (packRows).
var _ = [1]int{}[tileW*tileH-codewordBits] + [1]int{}[tileW-16]

// DefaultConfig returns the tuned production configuration.
func DefaultConfig() Config {
	return Config{Delta: 24}
}

func (c Config) validate() error {
	if c.Delta <= 0 {
		return errors.New("watermark: Delta must be positive")
	}
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// codeword expands a payload to its 160 coded bits. The CRC is
// crc32.Checksum's, taken a byte at a time through the same table so
// that payload stays on the stack (Checksum's argument escapes).
func codeword(payload [PayloadBytes]byte) [codewordBits]bool {
	var buf [wordBytes]byte
	copy(buf[:], payload[:])
	crc := ^uint32(0)
	for _, b := range payload {
		crc = castagnoli[byte(crc)^b] ^ crc>>8
	}
	binary.BigEndian.PutUint32(buf[PayloadBytes:], ^crc)
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
	if im.W < minWidth || im.H < minHeight {
		return nil, ErrTooSmall
	}
	bits := codeword(payload)
	out := im.Clone()
	cfg.embedBlocks(out, &bits)
	return out, nil
}

// embedBlocks requantizes every whole 8×8 block of out to carry its
// slot of the tiled codeword.
func (c Config) embedBlocks(out *photo.Image, bits *[codewordBits]bool) {
	bh := out.H / 8
	if (out.W/8)*bh < serialBelowBlocks {
		c.embedRows(out, bits, 0, bh)
		return
	}
	// Block rows are independent (each task reads and writes a disjoint
	// band of pixels), so the grid fans out across the pool; every
	// block's pixels are a pure function of its input block, so output
	// is byte-identical to the serial scan at any worker count. The
	// tasks share a copy of bits, so the caller's stays on its stack.
	shared := *bits
	parallel.ForChunks(bh, blockRowChunk, func(_, lo, hi int) { c.embedRows(out, &shared, lo, hi) })
}

// embedRows embeds block rows [lo, hi).
func (c Config) embedRows(out *photo.Image, bits *[codewordBits]bool, lo, hi int) {
	for by := lo; by < hi; by++ {
		row := bits[(by%tileH)*tileW:][:tileW]
		for bx := 0; bx < out.W/8; bx++ {
			c.requantizeBlock(out, bx*8, by*8, row[bx%tileW])
		}
	}
}

// requantizeBlock requantizes the block at (x0, y0) of out and writes
// it back with photo.Image.SetLuma's per-pixel rule: a gray sample
// becomes the new luma, an RGB pixel's channels each move by the luma's
// change, rounded and clamped to [0, 255]. The block's luma is read
// from out itself, which still holds the input's pixels there: blocks
// are disjoint, and each is read in full before it is written. Pixels
// outside whole blocks keep their luma, which SetLuma would write back
// unchanged, so they are left alone.
func (c Config) requantizeBlock(out *photo.Image, x0, y0 int, bit bool) {
	// A gray block is its own luma; an RGB block's is computed as
	// luma8 computes a plane.
	var luma [64]byte
	plane, stride, lx, ly := out.Pix, out.W, x0, y0
	if out.Channels != 1 {
		for r := 0; r < 8; r++ {
			px := (*[24]byte)(out.Pix[3*((y0+r)*out.W+x0):])
			for k := range 8 {
				luma[r*8+k] = grayOf(px[3*k], px[3*k+1], px[3*k+2])
			}
		}
		plane, stride, lx, ly = luma[:], 8, 0, 0
	}
	var blk [64]float64
	c.requantize(widenBlock(&blk, plane, stride, lx, ly), 8, bit)
	for r := 0; r < 8; r++ {
		o := (y0+r)*out.W + x0
		src := (*[8]float64)(blk[r*8:])
		if out.Channels == 1 {
			dst := (*[8]byte)(out.Pix[o:])
			for k, v := range src {
				dst[k] = clampByte(v)
			}
			continue
		}
		old, dst := (*[8]byte)(luma[r*8:]), (*[24]byte)(out.Pix[3*o:])
		for k, v := range src {
			d := v - float64(old[k])
			dst[3*k] = clampByte(float64(dst[3*k]) + d)
			dst[3*k+1] = clampByte(float64(dst[3*k+1]) + d)
			dst[3*k+2] = clampByte(float64(dst[3*k+2]) + d)
		}
	}
}

// clampByte rounds v to the nearest byte, clamping to [0, 255], as
// photo.Image.SetLuma does.
func clampByte(v float64) byte {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return byte(v + 0.5)
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
	coef := dct.Coef8(block, stride, coefU, coefV)
	dct.AddBasis8(block, stride, coefU, coefV, qimQuantize(coef, c.Delta, bit)-coef)
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
	out := im.Clone()
	cfg.eraseBlocks(out, seed)
	return out, nil
}

// eraseBlocks requantizes every whole block of out to a bit drawn from
// seed's stream.
func (c Config) eraseBlocks(out *photo.Image, seed int64) {
	state := uint64(seed)*2862933555777941757 + 3037000493
	for by := 0; by < out.H/8; by++ {
		for bx := 0; bx < out.W/8; bx++ {
			state = state*6364136223846793005 + 1442695040888963407
			c.requantizeBlock(out, bx*8, by*8, state>>63 == 1)
		}
	}
}
