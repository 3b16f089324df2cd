// Package photo models the digital photographs that flow through IRS.
//
// The paper's pipeline handles real camera output; offline we substitute
// deterministic synthetic images (see synth.go) with the pixel statistics
// that matter to the downstream components: smooth regions, texture, and
// edges, so that watermark embedding (internal/watermark) and perceptual
// hashing (internal/phash) behave as they would on photographs.
//
// The package also provides:
//
//   - an EXIF-like metadata container (meta.go) including the IRS label
//     fields, with explicit Strip semantics to model sites that discard
//     metadata (paper Goal #5);
//   - an on-disk container codec (codec.go): the metadata-preserving IRSP
//     format and plain PGM/PPM export, which strips metadata exactly the
//     way hostile or careless re-encoding does;
//   - the benign transforms the paper lists — compression, cropping,
//     tinting, plus scaling and noise (transform.go).
package photo

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// Image is an 8-bit image. Pixels are stored as one (grayscale) or three
// (RGB, interleaved) channels, row-major. All IRS processing that needs a
// single plane (hashing, watermarking) operates on the luma projection.
type Image struct {
	W, H     int
	Channels int    // 1 or 3
	Pix      []byte // len W*H*Channels
	Meta     Metadata
}

// NewGray allocates a w×h single-channel image.
func NewGray(w, h int) *Image {
	return &Image{W: w, H: h, Channels: 1, Pix: make([]byte, w*h), Meta: NewMetadata()}
}

// NewRGB allocates a w×h three-channel image.
func NewRGB(w, h int) *Image {
	return &Image{W: w, H: h, Channels: 3, Pix: make([]byte, w*h*3), Meta: NewMetadata()}
}

// Clone returns a deep copy of the image including metadata.
func (im *Image) Clone() *Image {
	out := &Image{W: im.W, H: im.H, Channels: im.Channels, Pix: make([]byte, len(im.Pix)), Meta: im.Meta.Clone()}
	copy(out.Pix, im.Pix)
	return out
}

// Gray returns the pixel at (x, y) projected to luma. For RGB images it
// uses the BT.601 integer approximation.
func (im *Image) Gray(x, y int) byte {
	if im.Channels == 1 {
		return im.Pix[y*im.W+x]
	}
	i := (y*im.W + x) * 3
	r, g, b := int(im.Pix[i]), int(im.Pix[i+1]), int(im.Pix[i+2])
	return byte((299*r + 587*g + 114*b) / 1000)
}

// SetGray writes v to (x, y). For RGB images all three channels are set.
func (im *Image) SetGray(x, y int, v byte) {
	if im.Channels == 1 {
		im.Pix[y*im.W+x] = v
		return
	}
	i := (y*im.W + x) * 3
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = v, v, v
}

// Luma returns the full luma plane as float64 values, row-major, suitable
// for DCT processing. The slice is freshly allocated.
func (im *Image) Luma() []float64 {
	n := im.W * im.H
	out := make([]float64, n)
	if im.Channels == 1 {
		for i, p := range im.Pix[:n] {
			out[i] = float64(p)
		}
		return out
	}
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			out[y*im.W+x] = float64(im.Gray(x, y))
		}
	}
	return out
}

// SetLuma overwrites the image from a float64 luma plane, clamping to
// [0, 255]. For RGB images the chroma is preserved by shifting each
// channel by the luma delta; this keeps tint transforms and watermarking
// composable.
func (im *Image) SetLuma(luma []float64) {
	if len(luma) != im.W*im.H {
		panic(fmt.Sprintf("photo: SetLuma plane size %d != %d", len(luma), im.W*im.H))
	}
	if im.Channels == 1 {
		for i, v := range luma {
			im.Pix[i] = clampByte(v)
		}
		return
	}
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			old := float64(im.Gray(x, y))
			d := luma[y*im.W+x] - old
			i := (y*im.W + x) * 3
			im.Pix[i] = clampByte(float64(im.Pix[i]) + d)
			im.Pix[i+1] = clampByte(float64(im.Pix[i+1]) + d)
			im.Pix[i+2] = clampByte(float64(im.Pix[i+2]) + d)
		}
	}
}

func clampByte(v float64) byte {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return byte(v + 0.5)
}

// ContentHash returns the SHA-256 of the image dimensions and raw pixels.
// This is the exact hash a camera signs at claim time (paper §3.2: "hashes
// the photo, and then encrypts the hash with the private key"). Metadata
// is deliberately excluded: labeling a photo after claiming it must not
// change its hash.
func (im *Image) ContentHash() [32]byte {
	h := sha256.New()
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(im.W))
	binary.BigEndian.PutUint32(hdr[4:], uint32(im.H))
	binary.BigEndian.PutUint32(hdr[8:], uint32(im.Channels))
	h.Write(hdr[:])
	h.Write(im.Pix)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Equal reports whether two images have identical dimensions and pixels.
// Metadata is not compared.
func (im *Image) Equal(o *Image) bool {
	if im.W != o.W || im.H != o.H || im.Channels != o.Channels {
		return false
	}
	for i := range im.Pix {
		if im.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// MeanAbsDiff returns the mean absolute per-pixel luma difference between
// two same-sized images — the distortion metric used by the watermark
// tests ("little or no perceptible distortion", paper §3.2).
func MeanAbsDiff(a, b *Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("photo: size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var sum float64
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			d := int(a.Gray(x, y)) - int(b.Gray(x, y))
			if d < 0 {
				d = -d
			}
			sum += float64(d)
		}
	}
	return sum / float64(a.W*a.H), nil
}

// PSNR returns the luma peak signal-to-noise ratio in dB between two
// same-sized images. Identical images return +Inf.
func PSNR(a, b *Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("photo: size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var mse float64
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			d := float64(int(a.Gray(x, y)) - int(b.Gray(x, y)))
			mse += d * d
		}
	}
	mse /= float64(a.W * a.H)
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}
