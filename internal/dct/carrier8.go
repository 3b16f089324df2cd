package dct

// Single-coefficient kernels for the watermark, which reads one output
// of each 8×8 block's transform and discards the other 63, and whose
// embedder changes that one coefficient and nothing else. Like
// kernel8.go this file is listed in scripts/check_bce.sh and must
// compile without bounds checks: fixed-size array pointers, the
// len-guarded subslice walk and same-length reslices only. Geometry
// (strides, plane offsets) belongs to the wrappers in dct8.go and to
// the callers.
//
// Bit-exactness: forward8 computes dst[u*8+v] as a row pass
// t[r] = Σ_c src[r][c]·basis8[v][c] followed by a column pass
// Σ_r t[r]·basis8[u][r], each sum accumulated left to right by fdct8.
// dot8 is that same expression, so every kernel here produces exactly
// the float64 forward8 would have stored at [u*8+v].

// dot8 is one output element of fdct8: Σ_i s[i]·b[i], left to right.
func dot8(s, b *[8]float64) float64 {
	return s[0]*b[0] + s[1]*b[1] + s[2]*b[2] + s[3]*b[3] +
		s[4]*b[4] + s[5]*b[5] + s[6]*b[6] + s[7]*b[7]
}

// coef8 is coefficient (u, v) of the block whose eight rows are given,
// with bu = basis8[u] and bv = basis8[v].
func coef8(rows *[8]*[8]float64, bu, bv *[8]float64) float64 {
	var t [8]float64
	for r, row := range rows {
		t[r] = dot8(row, bv)
	}
	return dot8(&t, bu)
}

// addBasis8 adds d times the (u, v) basis image to the block whose eight
// rows are given, with bu = basis8[u] and bv = basis8[v]:
// rows[r][c] += d·bu[r]·bv[c]. The inverse transform is linear, so this
// is what raising coefficient (u, v) by d does to the block's samples —
// the other 63 coefficients contribute what they already did.
func addBasis8(rows *[8]*[8]float64, d float64, bu, bv *[8]float64) {
	b0, b1, b2, b3, b4, b5, b6, b7 := bv[0], bv[1], bv[2], bv[3], bv[4], bv[5], bv[6], bv[7]
	for r, row := range rows {
		s := d * bu[r]
		row[0] += s * b0
		row[1] += s * b1
		row[2] += s * b2
		row[3] += s * b3
		row[4] += s * b4
		row[5] += s * b5
		row[6] += s * b6
		row[7] += s * b7
	}
}

// rowPass8 slides the row pass along one image row:
// dst[x] = Σ_c src[x+c]·b[c] for every x with a full window, up to
// len(dst) of them.
func rowPass8(dst, src []float64, b *[8]float64) {
	b0, b1, b2, b3, b4, b5, b6, b7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
	for len(dst) >= 1 && len(src) >= 8 {
		dst[0] = src[0]*b0 + src[1]*b1 + src[2]*b2 + src[3]*b3 +
			src[4]*b4 + src[5]*b5 + src[6]*b6 + src[7]*b7
		dst, src = dst[1:], src[1:]
	}
}

// colPass8 finishes the transform for a whole line of block positions:
// dst[x] = Σ_r rows[r][x]·b[r]. Every row must be at least len(dst)
// long.
func colPass8(dst []float64, rows *[8][]float64, b *[8]float64) {
	n := len(dst)
	r0, r1, r2, r3, r4, r5, r6, r7 := rows[0], rows[1], rows[2], rows[3], rows[4], rows[5], rows[6], rows[7]
	if len(r0) < n || len(r1) < n || len(r2) < n || len(r3) < n ||
		len(r4) < n || len(r5) < n || len(r6) < n || len(r7) < n {
		panic("dct: ColPass8 row shorter than dst")
	}
	r0, r1, r2, r3, r4, r5, r6, r7 = r0[:n], r1[:n], r2[:n], r3[:n], r4[:n], r5[:n], r6[:n], r7[:n]
	b0, b1, b2, b3, b4, b5, b6, b7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
	for x := range dst {
		dst[x] = r0[x]*b0 + r1[x]*b1 + r2[x]*b2 + r3[x]*b3 +
			r4[x]*b4 + r5[x]*b5 + r6[x]*b6 + r7[x]*b7
	}
}
