package watermark

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"irs/internal/dct"
	"irs/internal/parallel"
	"irs/internal/photo"
)

// Extraction reads one DCT coefficient per 8×8 block, so it never runs
// the block transform: dct.Coef8 / RowPass8 / ColPass8 compute that
// coefficient alone, bit-identical to dct.Forward8's output (same terms,
// same order). The full search shares the work across alignments — one
// row pass over the image serves all 64 pixel phases, one column pass
// per image line serves the 8 phases of that line — and checks each
// code phase's CRC on packed hard bits before it spends any float work
// on a margin. Every vote is accumulated in the order the per-phase,
// per-block scan used, and every margin in the class order it uses, so
// results (Margin included) are bit-identical to that scan, which the
// tests keep as the oracle.
//
// Reader and writer work on the 8-bit luma and widen it to float64 one
// 8×8 block (the aligned read, Embed, Erase) or one image line (the row
// pass) at a time: the widened samples are exactly the values of
// photo.Image.Luma, so the kernels compute on the numbers a whole
// float64 plane would hold, and none is built.

// planes is the pooled working set of one watermark call: an RGB
// image's 8-bit luma (a gray image is read from its own pixels), for
// the full search one widened image line and the row-pass plane, and
// the aligned read's candidate word (pooled because crc32.Checksum's
// argument escapes).
type planes struct {
	gray       []byte
	line, rows []float64
	ring       [2 * wordBytes]byte
}

var planePool = sync.Pool{New: func() any { return new(planes) }}

// luma8 returns im's luma as a row-major 8-bit plane: a gray image's
// own pixels, or for RGB p.gray filled by photo.Image.Gray's integer
// BT.601 formula.
func (p *planes) luma8(im *photo.Image) []byte {
	n := im.W * im.H
	if im.Channels == 1 {
		return im.Pix[:n]
	}
	if cap(p.gray) < n {
		p.gray = make([]byte, n)
	}
	gray := p.gray[:n]
	pix := im.Pix[:3*n]
	for i := range gray {
		gray[i] = grayOf(pix[3*i], pix[3*i+1], pix[3*i+2])
	}
	return gray
}

// grayOf is photo.Image.Gray's integer BT.601 luma of one RGB pixel.
func grayOf(r, g, b byte) byte {
	return byte((299*int(r) + 587*int(g) + 114*int(b)) / 1000)
}

// widenBlock widens the 8×8 block at (x0, y0) of an 8-bit plane of row
// stride w into blk and returns it, a block of row stride 8.
func widenBlock(blk *[64]float64, luma []byte, w, x0, y0 int) []float64 {
	for r := 0; r < 8; r++ {
		src, dst := (*[8]byte)(luma[(y0+r)*w+x0:]), (*[8]float64)(blk[r*8:])
		for c, v := range src {
			dst[c] = float64(v)
		}
	}
	return blk[:]
}

// bandScratch is the working set of one pixel-phase row (fixed py, the
// eight px): a line of carrier coefficients, the eight vote tables and
// the sweep's candidate words.
type bandScratch struct {
	coef  []float64
	votes [8][codewordBits]float64
	// ring[cx] is the word code phase (0, cx) reads, written twice over,
	// so that every (cy, cx) is a slice of it (see assemble).
	ring [tileW][2 * wordBytes]byte
}

var bandPool = sync.Pool{New: func() any { return new(bandScratch) }}

// Extract searches the image for an embedded payload across all pixel and
// codeword phases, returning the best CRC-valid candidate.
func Extract(im *photo.Image, cfg Config) (Result, error) {
	return extract(im, cfg, false, true)
}

// ExtractAligned is the fast path for images known to be grid-aligned and
// uncropped (e.g. straight from Embed, or after transcoding without
// geometry changes): it checks only the zero pixel/codeword phase and
// falls back to nothing else.
func ExtractAligned(im *photo.Image, cfg Config) (Result, error) {
	return extract(im, cfg, true, false)
}

// ExtractFallback is what an ingest path does with an image of unknown
// history: ExtractAligned, and when that reads nothing, Extract — over
// one 8-bit luma plane. The result is that of the first attempt to
// succeed.
func ExtractFallback(im *photo.Image, cfg Config) (Result, error) {
	return extract(im, cfg, true, true)
}

func extract(im *photo.Image, cfg Config, aligned, full bool) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	p := planePool.Get().(*planes)
	defer planePool.Put(p)
	luma := p.luma8(im)
	if aligned {
		res, err := p.readAligned(luma, im.W, im.H, cfg)
		if err == nil || !full {
			return res, err
		}
	}
	return p.search(luma, im.W, im.H, cfg)
}

// readAligned reads pixel phase (0, 0) at code phase (0, 0) of the
// w×h 8-bit plane luma. Serial: a block costs 72 multiply-adds, less
// than handing it to the pool.
func (p *planes) readAligned(luma []byte, w, h int, cfg Config) (Result, error) {
	bw, bh := w/8, h/8
	if bw < tileW || bh < tileH {
		return Result{}, ErrTooSmall
	}
	var votes [codewordBits]float64
	var blk [64]float64
	for by := 0; by < bh; by++ {
		row := (by % tileH) * tileW
		for bx := 0; bx < bw; bx++ {
			c := dct.Coef8(widenBlock(&blk, luma, w, bx*8, by*8), 8, coefU, coefV)
			votes[row+bx%tileW] += qimSoft(c, cfg.Delta)
		}
	}
	var rows [tileH]uint16
	packRows(&rows, &votes)
	assemble(&p.ring, &rows, 0)
	payload, ok := checkword((*[wordBytes]byte)(p.ring[:wordBytes]))
	if !ok {
		return Result{}, ErrNotFound
	}
	return Result{Payload: payload, Margin: margin(&votes, bw, bh)}, nil
}

// search is the full geometric search over the w×h 8-bit plane luma.
func (p *planes) search(luma []byte, w, h int, cfg Config) (Result, error) {
	rows := p.rowPass(luma, w, h)
	// One pool task per py: a column pass over the plane plus eight
	// 160-phase sweeps, enough work to be worth the hand-off.
	var bands [8]phaseCandidate
	parallel.Do(len(bands), func(py int) {
		bands[py] = searchBand(rows, w, h, py, cfg)
	})
	// Reduce in py order with the strictly-greater rule each band used
	// over its px: together the py-major scan of all 64 phases, so the
	// accepted candidate (and every tie-break) is identical at any
	// worker count.
	best := noCandidate
	for _, c := range bands {
		best.keep(c)
	}
	if !best.found {
		return Result{}, ErrNotFound
	}
	return best.res, nil
}

// rowPass fills p.rows from the w×h 8-bit plane luma: rows[y*w+x] is
// the row-pass term of carrier column coefV for the eight samples
// starting at (x, y), x ≤ w-8. A block's eight terms are the same whichever of the
// 64 grids the block belongs to, so the plane is computed once per
// image. Each image line is widened into p.line just before its pass.
func (p *planes) rowPass(luma []byte, w, h int) []float64 {
	if cap(p.rows) < w*h {
		p.rows = make([]float64, w*h)
	}
	rows := p.rows[:w*h]
	if w < 8 {
		return rows
	}
	if cap(p.line) < w {
		p.line = make([]float64, w)
	}
	line := p.line[:w]
	for y := 0; y < h; y++ {
		for x, s := range luma[y*w : (y+1)*w] {
			line[x] = float64(s)
		}
		dct.RowPass8(rows[y*w:y*w+w-7], line, coefV)
	}
	return rows
}

// phaseCandidate is the best CRC-valid extraction of one or more pixel
// phases.
type phaseCandidate struct {
	res   Result
	found bool
}

var noCandidate = phaseCandidate{res: Result{Margin: -1}}

// keep replaces c by o when o read a codeword with a strictly greater
// margin. The px of a band and then the bands fold their candidates
// through it in scan order, so the first of equally good candidates
// wins, as in one serial scan; the code phases of one pixel phase always
// tie, and sweep takes the first.
func (c *phaseCandidate) keep(o phaseCandidate) {
	if o.found && o.res.Margin > c.res.Margin {
		*c = o
	}
}

// searchBand searches the eight pixel phases (0..7, py) over the
// row-pass plane rows and returns the best candidate.
func searchBand(rows []float64, w, h, py int, cfg Config) phaseCandidate {
	best := noCandidate
	bh := (h - py) / 8
	if w/8 < tileW || bh < tileH {
		return best // no phase of this band holds a whole tile
	}
	s := bandPool.Get().(*bandScratch)
	defer bandPool.Put(s)
	s.vote(rows, w, py, bh, cfg)
	for px := range s.votes {
		best.keep(s.sweep(px, py, (w-px)/8, bh))
	}
	return best
}

// vote fills the eight vote tables of band py: votes[px][class] sums
// the soft decisions of every block of pixel phase (px, py) in residue
// class ((by mod tileH), (bx mod tileW)), by-major then bx-major.
//
// For any codeword phase (cy, cx) the vote for slot (r, c) is the class
// ((r-cy) mod tileH, (c-cx) mod tileW): every code phase reads this one
// table, cyclically shifted.
func (s *bandScratch) vote(rows []float64, w, py, bh int, cfg Config) {
	n := w - 7 // block positions per line
	if cap(s.coef) < n {
		s.coef = make([]float64, n)
	}
	coef := s.coef[:n]
	s.votes = [8][codewordBits]float64{}
	var lines [8][]float64
	for by := 0; by < bh; by++ {
		for r := range lines {
			o := (py + by*8 + r) * w
			lines[r] = rows[o : o+n]
		}
		// coef[x] is the carrier of the block at (x, py+by*8); x = px+bx*8
		// walks the eight phases' blocks in bx order.
		dct.ColPass8(coef, &lines, coefU)
		row := (by % tileH) * tileW
		for x := 0; x < n; x += 8 {
			idx := row + x/8%tileW
			for px, c := range coef[x:min(x+8, n)] {
				s.votes[px][idx] += qimSoft(c, cfg.Delta)
			}
		}
	}
}

// sweep scores the tileH×tileW code phases of pixel phase (px, py)
// from its vote table, CRC first: hard bits are taken once per class
// and packed by tile row, each cx gets its ring, and every (cy, cx) is
// then a slice of one — no per-candidate assembly and no copy. The
// first word whose CRC passes is the pixel phase's candidate and gets
// its margin; candidates are visited cy-major, the serial scan's order.
func (s *bandScratch) sweep(px, py, bw, bh int) phaseCandidate {
	if bw < tileW || bh < tileH {
		// Some class has no block. Every code phase reads every class,
		// so none of them is covered.
		return noCandidate
	}
	votes := &s.votes[px]
	var rows [tileH]uint16
	packRows(&rows, votes)
	for cx := range s.ring {
		assemble(&s.ring[cx], &rows, cx)
	}
	for cy := 0; cy < tileH; cy++ {
		off := wordBytes - 2*cy
		for cx := range s.ring {
			payload, ok := checkword((*[wordBytes]byte)(s.ring[cx][off:]))
			if !ok {
				continue
			}
			// Every later code phase ties with this one (see margin).
			return phaseCandidate{found: true, res: Result{
				Payload:     payload,
				Margin:      margin(votes, bw, bh),
				PixelPhaseX: px, PixelPhaseY: py,
				CodePhaseX: cx, CodePhaseY: cy,
			}}
		}
	}
	return noCandidate
}

// packRows takes the hard decision of every class: bit 15-c of rows[r]
// is set when class (r, c) votes 1, so a row reads MSB-first in column
// order.
func packRows(rows *[tileH]uint16, votes *[codewordBits]float64) {
	for r := range rows {
		var w uint16
		for _, v := range votes[r*tileW : (r+1)*tileW] {
			w <<= 1
			if v > 0 {
				w |= 1
			}
		}
		rows[r] = w
	}
}

// assemble writes the 160 hard bits code phase (0, cx) reads to ring
// twice, end to end: slot row r is class row r rotated right by cx, two
// big-endian bytes. Moving the code phase down by cy rows rotates that
// word by cy rows, so code phase (cy, cx) is the word of ring starting
// 2·cy bytes before the second copy.
func assemble(ring *[2 * wordBytes]byte, rows *[tileH]uint16, cx int) {
	for r, w := range rows {
		w = bits.RotateLeft16(w, -cx)
		binary.BigEndian.PutUint16(ring[2*r:], w)
		binary.BigEndian.PutUint16(ring[wordBytes+2*r:], w)
	}
}

// margin is the mean absolute per-class vote of a pixel phase, summed in
// class order. Every code phase reads the same 160 classes, so this is
// each one's margin to the bit: code phases of one pixel phase tie
// exactly and scan order decides, code phase (0, 0) first. (Summed in
// each code phase's slot order, the same terms rounded apart by ~1e-15,
// and that noise chose between a codeword and its CRC-valid twin.) The
// block count of a class is the product of how many of the bh block
// rows and bw block columns fall in it.
func margin(votes *[codewordBits]float64, bw, bh int) float64 {
	var sum float64
	for r := 0; r < tileH; r++ {
		nr := (bh - r + tileH - 1) / tileH
		for col := 0; col < tileW; col++ {
			n := nr * ((bw - col + tileW - 1) / tileW)
			m := votes[r*tileW+col] / float64(n)
			if m < 0 {
				m = -m
			}
			sum += m
		}
	}
	return sum / codewordBits
}
