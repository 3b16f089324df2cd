// Package dct implements the type-II discrete cosine transform and its
// inverse (type-III), in one and two dimensions.
//
// Two consumers in this repository depend on it: the robust watermark
// (internal/watermark) embeds identifier bits in mid-band coefficients of
// 8×8 blocks, and the perceptual hash (internal/phash) compares the
// low-frequency corner of a 32×32 transform. Both uses follow the
// DWT/DCT-domain schemes the paper cites for watermarking [2, 6, 18, 24]
// and the DCT variant of PhotoDNA-style robust hashing [13].
//
// The implementation is a direct O(N²) transform per row/column with
// precomputed cosine tables stored as flat row-major slices (basis and
// transposed basis), so both transform directions are unit-stride dot
// products whose inner loops carry no bounds checks. The 8×8 size
// additionally has a fully unrolled fast path (dct8.go) that
// Forward2D/Inverse2D dispatch to, and — because the watermark reads
// and writes one coefficient per block — kernels that compute or change
// that coefficient alone (carrier8.go). All paths are allocation-free
// after table construction and bit-identical to each other, which the
// tests assert.
package dct

import (
	"math"
	"sync"
	"sync/atomic"
)

// table holds the orthonormal DCT-II basis for a given N as two flat
// row-major slices:
//
//	basis[k*n+i]  = c(k) * cos(pi*(2i+1)*k/(2N))
//	basisT[i*n+k] = basis[k*n+i]
//
// with c(0)=sqrt(1/N), c(k>0)=sqrt(2/N). With this scaling the
// transform matrix is orthogonal, so the inverse is the transpose —
// basisT makes the inverse's inner products unit-stride too.
type table struct {
	n      int
	basis  []float64 // len n*n, row-major
	basisT []float64 // len n*n, transposed
}

// tables is a copy-on-write map so the per-transform read path is a
// single atomic load with no lock — every 8×8 transcoder block and 32×32
// phash transform goes through tableFor, and under the parallel
// execution layer a global mutex here serializes all workers. The two
// production sizes are pre-seeded; other sizes take the slow path once.
var (
	tables  atomic.Pointer[map[int]*table]
	tableMu sync.Mutex // serializes writers only
)

func init() {
	m := map[int]*table{8: buildTable(8), 32: buildTable(32)}
	tables.Store(&m)
}

func buildTable(n int) *table {
	t := &table{n: n, basis: make([]float64, n*n), basisT: make([]float64, n*n)}
	for k := 0; k < n; k++ {
		c := math.Sqrt(2 / float64(n))
		if k == 0 {
			c = math.Sqrt(1 / float64(n))
		}
		for i := 0; i < n; i++ {
			v := c * math.Cos(math.Pi*(2*float64(i)+1)*float64(k)/(2*float64(n)))
			t.basis[k*n+i] = v
			t.basisT[i*n+k] = v
		}
	}
	return t
}

func tableFor(n int) *table {
	if t, ok := (*tables.Load())[n]; ok {
		return t
	}
	tableMu.Lock()
	defer tableMu.Unlock()
	cur := *tables.Load()
	if t, ok := cur[n]; ok {
		return t
	}
	next := make(map[int]*table, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	t := buildTable(n)
	next[n] = t
	tables.Store(&next)
	return t
}

// Forward1D writes the DCT-II of src into dst. len(src) and len(dst) must
// be equal; they may not alias.
func Forward1D(dst, src []float64) {
	forward1D(tableFor(len(src)), dst, src)
}

// dotRows computes dst[k] = Σ_i src[i]·mat[k*n+i] for every k — the
// shared inner kernel of both transform directions. The row is resliced
// to len(src) before the accumulation loop, so the loop body indexes
// two slices the compiler knows are the same length: one slice-bound
// check per row, zero checks per element.
func dotRows(dst, src, mat []float64, n int) {
	off := 0
	for k := range dst {
		row := mat[off:]
		if len(row) > len(src) {
			row = row[:len(src)]
		}
		var s float64
		for i, v := range src {
			s += v * row[i]
		}
		dst[k] = s
		off += n
	}
}

func forward1D(t *table, dst, src []float64) {
	dotRows(dst, src, t.basis, t.n)
}

// Inverse1D writes the DCT-III (inverse of Forward1D) of src into dst.
func Inverse1D(dst, src []float64) {
	inverse1D(tableFor(len(src)), dst, src)
}

func inverse1D(t *table, dst, src []float64) {
	// dst[i] = Σ_k src[k]·basis[k*n+i]: a column access on basis, which
	// is exactly a row access on basisT — same kernel, same (k-ascending)
	// accumulation order, so the result is bit-identical to the direct
	// column walk.
	dotRows(dst, src, t.basisT, t.n)
}

// Block is a square coefficient or sample block stored row-major.
type Block struct {
	N    int
	Data []float64 // len N*N, row-major
}

// NewBlock allocates an N×N block.
func NewBlock(n int) *Block {
	return &Block{N: n, Data: make([]float64, n*n)}
}

// At returns the element at row r, column c.
func (b *Block) At(r, c int) float64 { return b.Data[r*b.N+c] }

// Set assigns the element at row r, column c.
func (b *Block) Set(r, c int, v float64) { b.Data[r*b.N+c] = v }

// scratch is the per-transform working memory for the generic 2D paths.
// The serial implementation allocated three slices per call — three
// allocs per block is the dominant allocation cost of the media hot
// paths — so 2D transforms draw scratch from a pool. Capacities only
// grow (the repo uses N=8 and N=32), so steady state is
// allocation-free. The 8×8 fast path keeps its scratch on the stack
// and never touches the pool.
type scratch struct {
	tmp, out, inter []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(n int) *scratch {
	s := scratchPool.Get().(*scratch)
	if cap(s.tmp) < n {
		s.tmp = make([]float64, n)
		s.out = make([]float64, n)
	}
	if cap(s.inter) < n*n {
		s.inter = make([]float64, n*n)
	}
	s.tmp, s.out, s.inter = s.tmp[:n], s.out[:n], s.inter[:n*n]
	return s
}

// Forward2D computes the 2D DCT-II of src into dst (rows then columns).
// Both blocks must have the same N. dst and src may alias.
func Forward2D(dst, src *Block) {
	n := src.N
	if n == 8 {
		Forward8(dst, src)
		return
	}
	t := tableFor(n)
	s := getScratch(n)
	tmp, out, inter := s.tmp, s.out, s.inter
	// Transform rows.
	for r := 0; r < n; r++ {
		copy(tmp, src.Data[r*n:(r+1)*n])
		forward1D(t, out, tmp)
		copy(inter[r*n:(r+1)*n], out)
	}
	// Transform columns.
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			tmp[r] = inter[r*n+c]
		}
		forward1D(t, out, tmp)
		for r := 0; r < n; r++ {
			dst.Data[r*n+c] = out[r]
		}
	}
	scratchPool.Put(s)
}

// Forward2DCorner computes only the top-left m×m corner of the 2D
// DCT-II of src, writing those dst entries and leaving the rest of dst
// untouched. Each computed coefficient accumulates in exactly the same
// order as Forward2D, so the corner is bit-identical to the full
// transform — the perceptual hash reads only the low-frequency corner,
// and skipping the other outputs cuts the row pass to m of n outputs
// and the column pass to m of n columns.
func Forward2DCorner(dst, src *Block, m int) {
	n := src.N
	if m >= n {
		Forward2D(dst, src)
		return
	}
	t := tableFor(n)
	s := getScratch(n)
	tmp, out, inter := s.tmp, s.out, s.inter
	// Row pass: every input row, but only the first m frequencies.
	for r := 0; r < n; r++ {
		copy(tmp, src.Data[r*n:(r+1)*n])
		forward1D(t, out[:m], tmp)
		copy(inter[r*n:r*n+m], out[:m])
	}
	// Column pass: only the first m columns, first m frequencies each.
	for c := 0; c < m; c++ {
		for r := 0; r < n; r++ {
			tmp[r] = inter[r*n+c]
		}
		forward1D(t, out[:m], tmp)
		for r := 0; r < m; r++ {
			dst.Data[r*n+c] = out[r]
		}
	}
	scratchPool.Put(s)
}

// Inverse2D computes the 2D inverse DCT of src into dst. dst and src may
// alias.
func Inverse2D(dst, src *Block) {
	n := src.N
	if n == 8 {
		Inverse8(dst, src)
		return
	}
	t := tableFor(n)
	s := getScratch(n)
	tmp, out, inter := s.tmp, s.out, s.inter
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			tmp[r] = src.Data[r*n+c]
		}
		inverse1D(t, out, tmp)
		for r := 0; r < n; r++ {
			inter[r*n+c] = out[r]
		}
	}
	for r := 0; r < n; r++ {
		copy(tmp, inter[r*n:(r+1)*n])
		inverse1D(t, out, tmp)
		copy(dst.Data[r*n:(r+1)*n], out)
	}
	scratchPool.Put(s)
}
