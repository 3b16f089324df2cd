package dct

// Fixed-size 8×8 fast path. 8×8 is the block size of the JPEG-like
// transcoder (Forward2D/Inverse2D dispatch here for N = 8) and of the
// watermark, whose single-coefficient kernels (carrier8.go) are defined
// by — and tested against — this transform. So this size gets a
// dedicated kernel: fully unrolled row/column passes over [8][8]float64
// basis tables, written so the compiler proves every index in range and
// emits no bounds checks (the kernels live in kernel8.go, which
// scripts/check_bce.sh asserts stays clean).
//
// Bit-exactness contract: fdct8/idct8 accumulate each output element
// in the same left-to-right term order as the generic forward1D /
// inverse1D loops, so the fast path produces bit-identical float64
// results — the committed experiment tables and every hash derived
// from DCT output are unchanged by taking this path.

// basis8 is the N=8 orthonormal DCT-II basis, basis8[k][i]; basis8T is
// its transpose, which turns the inverse (a column access pattern on
// basis8) into the same row-major dot-product shape as the forward.
var basis8, basis8T [8][8]float64

func init() {
	t := buildTable(8)
	for k := 0; k < 8; k++ {
		for i := 0; i < 8; i++ {
			basis8[k][i] = t.basis[k*8+i]
			basis8T[i][k] = t.basis[k*8+i]
		}
	}
}

// Forward8 computes the 2D DCT-II of an 8×8 block. Both blocks must
// have N == 8 (the slice→array conversion panics otherwise, which is
// the same contract violation the generic path would hit). dst and src
// may alias.
func Forward8(dst, src *Block) {
	forward8((*[64]float64)(dst.Data), (*[64]float64)(src.Data))
}

// Inverse8 computes the 2D inverse DCT of an 8×8 block. dst and src
// may alias.
func Inverse8(dst, src *Block) {
	inverse8((*[64]float64)(dst.Data), (*[64]float64)(src.Data))
}

// Coef8 returns coefficient (u, v) of the 2D DCT-II of the 8×8 block
// whose top-left sample is src[0] in a plane of the given row stride —
// bit-identical to Forward8's output at [u*8+v], for 72 multiply-adds
// instead of 1,024. A caller that then changes that coefficient writes
// the change back with AddBasis8.
func Coef8(src []float64, stride, u, v int) float64 {
	rows := blockRows8(src, stride)
	return coef8(&rows, &basis8[u], &basis8[v])
}

// AddBasis8 raises coefficient (u, v) of the 8×8 block at src[0] (same
// addressing as Coef8) by d, in the sample domain and in place:
// sample (r, c) grows by d·basis8[u][r]·basis8[v][c]. The inverse DCT is
// linear, so this is Inverse8 of the block's transform with d added at
// [u*8+v], without computing the transform or touching the other 63
// coefficients — 72 multiply-adds, and the samples agree with the
// Forward8/Inverse8 round trip to its own rounding error (~1e-13),
// which the watermark's differential tests bound at 1e-9.
func AddBasis8(src []float64, stride, u, v int, d float64) {
	rows := blockRows8(src, stride)
	addBasis8(&rows, d, &basis8[u], &basis8[v])
}

// blockRows8 addresses the eight rows of the block at src[0]; the
// conversions panic when the plane is too short to hold it.
func blockRows8(src []float64, stride int) (rows [8]*[8]float64) {
	for r := range rows {
		rows[r] = (*[8]float64)(src[r*stride:])
	}
	return rows
}

// RowPass8 computes dst[x] = Σ_c src[x+c]·basis8[v][c] for each of the
// first len(dst) window positions of one image row (at most
// len(src)-7): the row-pass term of output column v for a block
// starting at any x. The terms do not depend on which row of its block
// the image row is, so one pass over a plane serves every 8×8 grid
// alignment.
func RowPass8(dst, src []float64, v int) {
	rowPass8(dst, src, &basis8[v])
}

// ColPass8 computes dst[x] = Σ_r rows[r][x]·basis8[u][r]: given eight
// consecutive lines of RowPass8 output, coefficient (u, v) of the block
// with top-left at column x of the first line, for every x at once and
// bit-identical to Coef8 there.
func ColPass8(dst []float64, rows *[8][]float64, u int) {
	colPass8(dst, rows, &basis8[u])
}
