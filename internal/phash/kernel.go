package phash

// Pure inner-loop kernels of the perceptual hashes. Everything in this
// file indexes fixed-size arrays or same-length slices with bounds the
// compiler can prove, so the hot loops carry no bounds checks —
// scripts/check_bce.sh asserts this file compiles clean. Keep
// variable-length slicing and image-geometry arithmetic in phash.go;
// only the provable loops belong here.

// prefixRowBytes advances a running row of 2-D prefix sums by one image
// row of single-channel pixels: acc[x] grows by pix[0] + … + pix[x], so
// an acc that held the sums over all earlier rows now includes this one.
// acc must be at least as long as pix. Integer addition is exact, so
// any difference of the sums is the pixel sum a direct loop would get.
//
// Not inlined: inside downscale's many live values the running sum is
// spilled and every pixel waits on a store-to-load round trip — measured
// 2.4 ns/pixel inlined against 0.5 ns here.
//
//go:noinline
func prefixRowBytes(acc []int64, pix []byte) {
	if len(acc) < len(pix) {
		panic("phash: prefix row shorter than the image row")
	}
	acc = acc[:len(pix)]
	var s int64
	for x, p := range pix {
		s += int64(p)
		acc[x] += s
	}
}

// prefixRowRGB is prefixRowBytes for one row of interleaved RGB pixels
// (len(pix) is three times the pixels). The per-pixel
// (299r+587g+114b)/1000 truncation matches photo.Image.Gray exactly —
// int32 holds the weighted sum of one pixel (max 255000) with room to
// spare. Not inlined, as prefixRowBytes.
//
//go:noinline
func prefixRowRGB(acc []int64, pix []byte) {
	var s int64
	for len(acc) >= 1 && len(pix) >= 3 {
		r, g, b := int32(pix[0]), int32(pix[1]), int32(pix[2])
		s += int64((299*r + 587*g + 114*b) / 1000)
		acc[0] += s
		acc, pix = acc[1:], pix[3:]
	}
}

// meanBits64 computes the AHash decision: bit i set where cells[i]
// exceeds the mean, accumulated in index order like the original loop.
func meanBits64(cells *[64]float64) uint64 {
	var mean float64
	for _, v := range cells {
		mean += v
	}
	mean /= 64
	var h uint64
	for i, v := range cells {
		if v > mean {
			h |= 1 << uint(i)
		}
	}
	return h
}

// gradBits72 computes the DHash decision over a 9×8 cell grid: bit set
// where each cell is brighter than its right neighbor.
func gradBits72(cells *[72]float64) uint64 {
	var h uint64
	i := 0
	for rows := cells[:]; len(rows) >= 9; rows = rows[9:] {
		c0, c1, c2, c3, c4 := rows[0], rows[1], rows[2], rows[3], rows[4]
		c5, c6, c7, c8 := rows[5], rows[6], rows[7], rows[8]
		if c0 > c1 {
			h |= 1 << uint(i)
		}
		if c1 > c2 {
			h |= 1 << uint(i+1)
		}
		if c2 > c3 {
			h |= 1 << uint(i+2)
		}
		if c3 > c4 {
			h |= 1 << uint(i+3)
		}
		if c4 > c5 {
			h |= 1 << uint(i+4)
		}
		if c5 > c6 {
			h |= 1 << uint(i+5)
		}
		if c6 > c7 {
			h |= 1 << uint(i+6)
		}
		if c7 > c8 {
			h |= 1 << uint(i+7)
		}
		i += 8
	}
	return h
}

// cornerVals gathers the top-left 8×8 corner of a 32×32 coefficient
// block into vals in row-major order, replacing DC with the (8,8)
// diagonal coefficient — the same layout PHash always used.
func cornerVals(coef *[1024]float64, vals *[64]float64) {
	v, c := vals[:], coef[:256]
	for len(v) >= 8 && len(c) >= 32 {
		v[0], v[1], v[2], v[3] = c[0], c[1], c[2], c[3]
		v[4], v[5], v[6], v[7] = c[4], c[5], c[6], c[7]
		v = v[8:]
		c = c[32:]
	}
	vals[0] = coef[8*32+8]
}

// signBits64 computes the PHash decision: bit i set where vals[i]
// exceeds the median.
func signBits64(vals *[64]float64, med float64) uint64 {
	var h uint64
	for i, v := range vals {
		if v > med {
			h |= 1 << uint(i)
		}
	}
	return h
}
