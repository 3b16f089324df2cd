// Package phash implements perceptual (robust) image hashing.
//
// It is this repository's stand-in for PhotoDNA (paper §2, "Relevant
// Technologies"; [13]), which is proprietary. IRS uses robust hashing in
// two places: the appeals process compares an allegedly-copied photo with
// the complainant's original (§3.2, "using robust hashing (as in
// PhotoDNA) and/or human inspection"), and aggregators "keep a database
// of robust hashes of their current content and check all newly uploaded
// photos against this database".
//
// Three classic 64-bit hashes are provided:
//
//   - AHash: mean threshold over an 8×8 downscale — fastest, weakest;
//   - DHash: horizontal gradient sign over a 9×8 downscale — robust to
//     uniform brightness/contrast changes by construction;
//   - PHash: sign of the 8×8 low-frequency corner (minus DC) of the DCT
//     of a 32×32 downscale — the DCT variant closest in spirit to
//     PhotoDNA, robust to compression, mild crops, and tinting.
//
// Similarity is Hamming distance; Match applies the conventional ≤
// threshold decision. The appeals package combines PHash and DHash votes.
package phash

import (
	"math/bits"
	"sync"

	"irs/internal/dct"
	"irs/internal/parallel"
	"irs/internal/photo"
)

// Hash is a 64-bit perceptual hash.
type Hash uint64

// Distance returns the Hamming distance between two hashes (0..64).
func Distance(a, b Hash) int { return bits.OnesCount64(uint64(a) ^ uint64(b)) }

// DefaultThreshold is the conventional match cutoff for 64-bit perceptual
// hashes: distances ≤ 10 indicate the images are variants of each other.
const DefaultThreshold = 10

// Match reports whether two hashes are within the threshold.
func Match(a, b Hash, threshold int) bool { return Distance(a, b) <= threshold }

// hashScratch is the per-hash working set: the box downscales in
// progress and their running prefix row, then cells, DCT coefficients,
// the corner gather and the median sort buffer. Every hash draws one
// from the pool, so after warmup a hash performs zero allocations — the
// upload pipeline hashes every image.
type hashScratch struct {
	row   []int64 // running row of 2-D prefix sums, W+1 long
	grids [numGrids]boxGrid
	cells [1024]float64 // one grid's cells at a time (32×32 at most)
	coef  [1024]float64
	vals  [64]float64
	sort  [64]float64
}

var hashPool = sync.Pool{New: func() any { return new(hashScratch) }}

// The three box downscales the hashes read, as indices into
// hashScratch.grids and gridDims (width, height in cells).
const (
	gridA = iota // 8×8, AHash
	gridD        // 9×8, DHash
	gridP        // 32×32, PHash
	numGrids
)

var gridDims = [numGrids][2]int{gridA: {8, 8}, gridD: {9, 8}, gridP: {32, 32}}

// maxEdges bounds the cell boundaries along one axis of the largest
// grid: 32 cells have at most 33 distinct ends.
const maxEdges = 33

// axis is how one image axis of N pixels is cut into n cells. Cell i
// covers pixels [i·N/n, (i+1)·N/n), widened to one pixel when that is
// empty (N < n): the box filter's geometry, unchanged. Consecutive cells
// share their ends — when N ≥ n each starts where the last one stopped,
// when N < n every cell is one pixel wide — so at most n+1 distinct
// coordinates bound all of them, and a cell's far end is always the
// edge after its near one.
type axis struct {
	n    int             // edges in use
	edge [maxEdges]int   // strictly increasing pixel coordinates; edge[0] = 0
	lo   [maxEdges]uint8 // cell i spans edge[lo[i]] .. edge[lo[i]+1]
}

func (a *axis) cut(N, n int) {
	a.n, a.edge[0] = 1, 0
	for i := 0; i < n; i++ {
		lo, hi := i*N/n, (i+1)*N/n
		if hi <= lo {
			hi = lo + 1
		}
		if a.edge[a.n-1] < hi {
			a.edge[a.n] = hi
			a.n++
		}
		// hi is now the last edge and lo, by the sharing above, the one
		// before it.
		a.lo[i] = uint8(a.n - 2)
	}
}

// boxGrid is one box downscale: its cuts along both axes and the
// image's 2-D prefix sum P[y][x] = Σ luma over rows < y and columns < x,
// held only where a cell corner can fall.
type boxGrid struct {
	xs, ys axis
	corner [maxEdges][maxEdges]int64 // corner[j][i] = P[ys.edge[j]][xs.edge[i]]
	next   int                       // the row of corner the pass fills next
}

// sample records the prefix row of image row y if the grid has an edge
// there. The pass calls it for every y in ascending order.
func (g *boxGrid) sample(y int, row []int64) {
	if g.next == g.ys.n || g.ys.edge[g.next] != y {
		return
	}
	dst := &g.corner[g.next]
	for i, x := range g.xs.edge[:g.xs.n] {
		dst[i] = row[x]
	}
	g.next++
}

// gridCells computes grid k's box means into s.cells, row-major, and
// returns them. A cell's pixel sum is the four-corner difference of the
// prefix sum, exact in int64 (at most 16384²·255 < 2³⁷), and is divided
// by the same (y1−y0)(x1−x0) a direct sum over the cell was — so every
// cell is the float64 the per-cell summation produced, and with it
// every hash and committed table.
func (s *hashScratch) gridCells(k int) []float64 {
	g := &s.grids[k]
	w, h := gridDims[k][0], gridDims[k][1]
	dst := s.cells[:w*h]
	for oy := 0; oy < h; oy++ {
		j := g.ys.lo[oy]
		top, bot := &g.corner[j], &g.corner[j+1]
		dy := g.ys.edge[j+1] - g.ys.edge[j]
		for ox := 0; ox < w; ox++ {
			i := g.xs.lo[ox]
			sum := bot[i+1] - bot[i] - top[i+1] + top[i]
			dst[oy*w+ox] = float64(sum) / float64(dy*(g.xs.edge[i+1]-g.xs.edge[i]))
		}
	}
	return dst
}

// downscale box-filters the luma plane onto the chosen grids (indices
// into s.grids) in one pass over the pixels. A box filter (rather than
// bilinear) makes the hash insensitive to the high-frequency content
// that compression perturbs.
//
// The pass keeps a single row of the 2-D prefix sum — after image row y,
// row[x] = P[y+1][x] — and each grid copies out the few entries at its
// own column edges when y+1 is one of its row edges. Memory is W+1
// int64s whatever the height (images may be 16384²), and the pixels are
// read once however many grids are asked for. Pixel luma is an exact
// integer (bytes for grayscale, the BT.601 integer projection for RGB),
// so the sums are exact and order-free.
func (s *hashScratch) downscale(im *photo.Image, grids ...int) {
	for _, k := range grids {
		g := &s.grids[k]
		g.xs.cut(im.W, gridDims[k][0])
		g.ys.cut(im.H, gridDims[k][1])
		g.next = 0
	}
	if im.W <= 0 || im.H <= 0 {
		// No pixels: every cell sums nothing.
		for _, k := range grids {
			s.grids[k].corner = [maxEdges][maxEdges]int64{}
		}
		return
	}
	if cap(s.row) < im.W+1 {
		s.row = make([]int64, im.W+1)
	}
	row := s.row[:im.W+1]
	clear(row)
	for _, k := range grids {
		s.grids[k].sample(0, row)
	}
	stride := im.W * im.Channels
	for y := 0; y < im.H; y++ {
		line := im.Pix[y*stride : (y+1)*stride]
		if im.Channels == 1 {
			prefixRowBytes(row[1:], line)
		} else {
			prefixRowRGB(row[1:], line)
		}
		for _, k := range grids {
			s.grids[k].sample(y+1, row)
		}
	}
}

// aHash, dHash and pHash finish one hash from its downscaled grid.

func (s *hashScratch) aHash() Hash {
	return Hash(meanBits64((*[64]float64)(s.gridCells(gridA))))
}

func (s *hashScratch) dHash() Hash {
	return Hash(gradBits72((*[72]float64)(s.gridCells(gridD))))
}

func (s *hashScratch) pHash() Hash {
	blk := dct.Block{N: 32, Data: s.gridCells(gridP)}
	coef := dct.Block{N: 32, Data: s.coef[:]}
	// Only the top-left 8×8 corner plus the (8,8) DC stand-in feed the
	// hash, so a 9×9 partial transform is all the DCT work needed.
	dct.Forward2DCorner(&coef, &blk, 9)
	cornerVals(&s.coef, &s.vals)
	return Hash(signBits64(&s.vals, median64(&s.vals, &s.sort)))
}

// AHash computes the average hash: 8×8 downscale, bit set where the cell
// exceeds the mean.
func AHash(im *photo.Image) Hash {
	s := hashPool.Get().(*hashScratch)
	defer hashPool.Put(s)
	s.downscale(im, gridA)
	return s.aHash()
}

// DHash computes the difference hash: 9×8 downscale, bit set where each
// cell is brighter than its right neighbor.
func DHash(im *photo.Image) Hash {
	s := hashPool.Get().(*hashScratch)
	defer hashPool.Put(s)
	s.downscale(im, gridD)
	return s.dHash()
}

// PHash computes the DCT hash: 32×32 downscale, 2D DCT, then the sign of
// each of the 64 lowest-frequency coefficients (excluding DC, which is
// replaced by the next diagonal coefficient) against their median.
func PHash(im *photo.Image) Hash {
	s := hashPool.Get().(*hashScratch)
	defer hashPool.Put(s)
	s.downscale(im, gridP)
	return s.pHash()
}

// median64 returns the median of vals without modifying it, insertion-
// sorting a scratch copy — same algorithm and even-length averaging as
// the allocating median helper. It lives outside kernel.go because the
// descending-index store in the insertion loop is the one hash loop
// the prove pass cannot clear; it runs 64 times per PHash, not per
// pixel.
func median64(vals, sortBuf *[64]float64) float64 {
	*sortBuf = *vals
	for i := 1; i < 64; i++ {
		v := sortBuf[i]
		j := i
		for j > 0 && sortBuf[j-1] > v {
			sortBuf[j] = sortBuf[j-1]
			j--
		}
		sortBuf[j] = v
	}
	return (sortBuf[31] + sortBuf[32]) / 2
}

// median returns the median without modifying vals.
func median(vals []float64) float64 {
	cp := make([]float64, len(vals))
	copy(cp, vals)
	// Insertion sort: n = 64, not worth pulling in sort for floats with
	// NaN handling we don't need.
	for i := 1; i < len(cp); i++ {
		v := cp[i]
		j := i - 1
		for j >= 0 && cp[j] > v {
			cp[j+1] = cp[j]
			j--
		}
		cp[j+1] = v
	}
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Signature is the multi-hash fingerprint stored in aggregator and
// appeals databases: all three hashes, compared jointly.
type Signature struct {
	A, D, P Hash
}

// NewSignature computes all three hashes of an image from one pass over
// its pixels.
func NewSignature(im *photo.Image) Signature {
	s := hashPool.Get().(*hashScratch)
	defer hashPool.Put(s)
	s.downscale(im, gridA, gridD, gridP)
	return Signature{A: s.aHash(), D: s.dHash(), P: s.pHash()}
}

// Similarity returns a score in [0, 1]: 1 means identical signatures,
// computed as 1 minus the mean normalized Hamming distance.
func (s Signature) Similarity(o Signature) float64 {
	d := Distance(s.A, o.A) + Distance(s.D, o.D) + Distance(s.P, o.P)
	return 1 - float64(d)/(3*64)
}

// Matches applies a two-of-three vote at the default threshold: the
// decision rule the appeals adjudicator uses before escalating to human
// inspection.
func (s Signature) Matches(o Signature) bool {
	votes := 0
	if Match(s.A, o.A, DefaultThreshold) {
		votes++
	}
	if Match(s.D, o.D, DefaultThreshold) {
		votes++
	}
	if Match(s.P, o.P, DefaultThreshold) {
		votes++
	}
	return votes >= 2
}

// SignatureAll computes the full three-hash signature for every image,
// fanning the set out across the worker pool: aggregators hash whole
// upload sets and rebuild robust-hash databases over every hosted photo
// (§3.2). Results are in input order.
func SignatureAll(ims []*photo.Image) []Signature {
	return parallel.Map(ims, func(_ int, im *photo.Image) Signature { return NewSignature(im) })
}
