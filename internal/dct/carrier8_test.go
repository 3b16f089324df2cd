package dct

import (
	"math/rand"
	"testing"
)

// TestCoef8BitIdentical pins the single-coefficient kernels to the full
// transform: at every block position of a random plane, for all 64
// (u, v), Coef8 and the RowPass8→ColPass8 pair return exactly what
// Forward8 stores at [u*8+v].
func TestCoef8BitIdentical(t *testing.T) {
	const w, h = 29, 19
	rng := rand.New(rand.NewSource(12))
	plane := make([]float64, w*h)
	for i := range plane {
		plane[i] = rng.Float64()*255 - 64
	}
	src, full := NewBlock(8), NewBlock(8)
	rowT := make([]float64, w*h)
	line := make([]float64, w-7)
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			for y := 0; y < h; y++ {
				RowPass8(rowT[y*w:y*w+w-7], plane[y*w:(y+1)*w], v)
			}
			for y0 := 0; y0+8 <= h; y0++ {
				var rows [8][]float64
				for r := range rows {
					rows[r] = rowT[(y0+r)*w:]
				}
				ColPass8(line, &rows, u)
				for x0 := 0; x0+8 <= w; x0++ {
					for r := 0; r < 8; r++ {
						copy(src.Data[r*8:r*8+8], plane[(y0+r)*w+x0:])
					}
					Forward8(full, src)
					want := full.Data[u*8+v]
					if got := Coef8(plane[y0*w+x0:], w, u, v); got != want {
						t.Fatalf("Coef8(%d,%d) at (%d,%d) = %v, Forward8 = %v", u, v, x0, y0, got, want)
					}
					if line[x0] != want {
						t.Fatalf("ColPass8(%d,%d) at (%d,%d) = %v, Forward8 = %v", u, v, x0, y0, line[x0], want)
					}
				}
			}
		}
	}
}

// TestRowPass8Bounds checks the window arithmetic: a short dst limits
// the pass, a short src limits it to the full windows, and nothing past
// either is written.
func TestRowPass8Bounds(t *testing.T) {
	src := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	dst := []float64{-1, -1, -1, -1, -1}
	RowPass8(dst, src, 0)
	dc := basis8[0][0]
	for x, want := range []float64{36 * dc, 44 * dc, 52 * dc, -1, -1} {
		if d := dst[x] - want; d > 1e-12 || d < -1e-12 {
			t.Errorf("dst[%d] = %v, want %v", x, dst[x], want)
		}
	}
	dst = []float64{-1, -1}
	RowPass8(dst[:1], src, 0)
	if dst[1] != -1 {
		t.Errorf("RowPass8 wrote past len(dst): %v", dst)
	}
	RowPass8(dst, src[:7], 0)
	if dst[1] != -1 {
		t.Errorf("RowPass8 wrote from a window shorter than 8: %v", dst)
	}
}

// TestAddBasis8MatchesInverse pins the write kernel to the transform it
// short-cuts: for all 64 (u, v), at block positions inside a wider
// plane, raising one coefficient through AddBasis8 gives the samples
// Forward8 → add d at [u*8+v] → Inverse8 gives, to the round trip's own
// rounding error; afterwards Coef8 reads the raised coefficient and
// every sample outside the block is untouched.
func TestAddBasis8MatchesInverse(t *testing.T) {
	const w, h = 21, 13
	rng := rand.New(rand.NewSource(14))
	plane := make([]float64, w*h)
	for i := range plane {
		plane[i] = float64(rng.Intn(256))
	}
	src, coef := NewBlock(8), NewBlock(8)
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			x0, y0 := rng.Intn(w-7), rng.Intn(h-7)
			d := rng.Float64()*96 - 48
			for r := 0; r < 8; r++ {
				copy(src.Data[r*8:r*8+8], plane[(y0+r)*w+x0:])
			}
			Forward8(coef, src)
			before := coef.Data[u*8+v]
			coef.Data[u*8+v] += d
			Inverse8(src, coef)

			got := append([]float64(nil), plane...)
			AddBasis8(got[y0*w+x0:], w, u, v, d)
			for i := range got {
				x, y := i%w, i/w
				want := plane[i]
				if x >= x0 && x < x0+8 && y >= y0 && y < y0+8 {
					want = src.Data[(y-y0)*8+x-x0]
				} else if got[i] != want {
					t.Fatalf("AddBasis8(%d,%d) at (%d,%d) wrote outside its block at (%d,%d)", u, v, x0, y0, x, y)
				}
				if diff := got[i] - want; diff > 1e-10 || diff < -1e-10 {
					t.Fatalf("AddBasis8(%d,%d) at (%d,%d): sample (%d,%d) = %v, round trip = %v", u, v, x0, y0, x, y, got[i], want)
				}
			}
			if c := Coef8(got[y0*w+x0:], w, u, v); c-(before+d) > 1e-10 || c-(before+d) < -1e-10 {
				t.Fatalf("after AddBasis8(%d,%d, %v) the coefficient reads %v, want %v", u, v, d, c, before+d)
			}
		}
	}
}

func BenchmarkCoef8(b *testing.B) {
	plane := make([]float64, 64)
	rng := rand.New(rand.NewSource(13))
	for i := range plane {
		plane[i] = rng.Float64() * 255
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Coef8(plane, 8, 3, 2)
	}
	benchSink = sink
}

var benchSink float64
