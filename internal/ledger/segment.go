package ledger

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strings"
	"sync/atomic"

	"irs/internal/ids"
)

// Immutable sorted segment files (SSTable-style).
//
// A segment holds one sorted run of claim records — the newest version
// of each record the run covered when it was sealed. Layout:
//
//	header:  magic "IRSG" | u32 version
//	data:    claim frames (binrec.go framing), ascending by ID bytes
//	index:   sparse key index: every indexStride-th record's
//	         (id[16], u64 data offset)
//	revoked: id[16] list of records in this segment whose sealed state
//	         is revoked or permanently revoked, ascending
//	bloom:   bitset over all record IDs (blocked double-hashing)
//	footer:  fixed-size trailer locating the sections, with its own CRC
//
// Readers memory-map the file: a point lookup is bloom test → binary
// search of the sparse index → a bounded scan of at most indexStride
// frames, touching only the pages the probe lands on. Segments never
// change after seal, so readers take no locks; the engine swaps whole
// segment lists atomically.
//
// The revoked section exists for recovery: rebuilding the in-memory
// revoked set needs only each segment's revoked list (checked for
// shadowing against newer segments), not a scan of every record.

const (
	segMagic   = "IRSG"
	segVersion = formatVersion
	// indexStride is the sparse-index granularity: a lookup scans at
	// most this many frames after the index seek.
	indexStride = 16
	// segFooterSize: magic(4) version(4) count(8) dataEnd(8) indexOff(8)
	// indexCount(8) revOff(8) revCount(8) bloomOff(8) bloomLen(8)
	// bloomK(4) crc(4)
	segFooterSize = 80
	// segBloomBitsPerKey sizes the per-segment filter (~0.8% FP at 10
	// bits/key with 6 probes).
	segBloomBitsPerKey = 10
	segBloomK          = 6
)

const segFilePrefix = "seg-"

func segFileName(seq uint64) string {
	return fmt.Sprintf("%s%08d.seg", segFilePrefix, seq)
}

// isSegFile reports whether a directory entry's name is a segment file's.
func isSegFile(name string) bool {
	return strings.HasPrefix(name, segFilePrefix) && strings.HasSuffix(name, ".seg")
}

// segBloomHash derives the double-hashing pair for an identifier.
func segBloomHash(id ids.PhotoID) (h1, h2 uint64) {
	hi, lo := id.Uint64Pair()
	h1 = hi*0x9e3779b97f4a7c15 ^ lo
	h1 ^= h1 >> 29
	h1 *= 0xbf58476d1ce4e5b9
	h1 ^= h1 >> 32
	h2 = lo*0x94d049bb133111eb ^ hi
	h2 ^= h2 >> 31
	h2 *= 0xd6e8feb86659fd93
	h2 ^= h2 >> 29
	h2 |= 1
	return h1, h2
}

func segBloomTest(bits []byte, k uint32, id ids.PhotoID) bool {
	if len(bits) == 0 {
		return false
	}
	m := uint64(len(bits)) * 8
	h1, h2 := segBloomHash(id)
	for i := uint32(0); i < k; i++ {
		bit := (h1 + uint64(i)*h2) % m
		if bits[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
	}
	return true
}

func segBloomAdd(bits []byte, k uint32, id ids.PhotoID) {
	m := uint64(len(bits)) * 8
	h1, h2 := segBloomHash(id)
	for i := uint32(0); i < k; i++ {
		bit := (h1 + uint64(i)*h2) % m
		bits[bit>>3] |= 1 << (bit & 7)
	}
}

// idLess orders identifiers by their big-endian byte encoding — the
// sort order of segment data and of every state dump.
func idLess(a, b ids.PhotoID) bool {
	ahi, alo := a.Uint64Pair()
	bhi, blo := b.Uint64Pair()
	return keyLess(ahi, alo, bhi, blo)
}

// keyLess is idLess over identifiers held as Uint64Pair words.
func keyLess(ahi, alo, bhi, blo uint64) bool {
	return ahi < bhi || ahi == bhi && alo < blo
}

// segWriter streams a sorted run of records into a segment file.
type segWriter struct {
	f   *os.File
	w   *bufio.Writer
	off int64 // data bytes written (excluding header)

	count   uint64
	index   []byte // id[16] ∥ u64 offset entries
	revoked []byte // id[16] entries
	lastID  ids.PhotoID
	bloom   []byte

	// failAfter, when > 0, injects a write failure once that many bytes
	// have been written — the crash-injection suite's kill switch.
	failAfter int64
	written   int64
}

func newSegWriter(path string, expected int, failAfter int64) (*segWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: creating segment: %w", err)
	}
	if expected < 1 {
		expected = 1
	}
	sw := &segWriter{
		f:         f,
		w:         bufio.NewWriterSize(f, 1<<20),
		index:     make([]byte, 0, (expected/indexStride+1)*24),
		bloom:     make([]byte, (expected*segBloomBitsPerKey+7)/8),
		failAfter: failAfter,
	}
	var hdr [8]byte
	copy(hdr[:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], segVersion)
	if err := sw.write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return sw, nil
}

// write funnels every byte through the fail-point.
func (sw *segWriter) write(b []byte) error {
	if sw.failAfter > 0 && sw.written+int64(len(b)) > sw.failAfter {
		n := sw.failAfter - sw.written
		if n > 0 {
			sw.w.Write(b[:n])
			sw.w.Flush()
		}
		sw.written = sw.failAfter + 1
		return fmt.Errorf("ledger: injected segment write failure")
	}
	sw.written += int64(len(b))
	_, err := sw.w.Write(b)
	return err
}

// add appends one record as its encoded claim frame, which the writer
// copies out and never decodes: a flush hands it a scratch encoding, a
// merge the frame as it lies in the source segment. Records must arrive
// in strictly ascending ID order with no duplicates; revoked says the
// frame's state is revoked or permanently revoked.
func (sw *segWriter) add(id ids.PhotoID, revoked bool, frame []byte) error {
	if sw.count > 0 && !idLess(sw.lastID, id) {
		return fmt.Errorf("ledger: segment records out of order (%s after %s)", id, sw.lastID)
	}
	sw.lastID = id
	b := id.Bytes()
	if sw.count%indexStride == 0 {
		sw.index = append(sw.index, b[:]...)
		sw.index = binary.LittleEndian.AppendUint64(sw.index, uint64(sw.off))
	}
	if revoked {
		sw.revoked = append(sw.revoked, b[:]...)
	}
	if err := sw.write(frame); err != nil {
		return err
	}
	sw.off += int64(len(frame))
	segBloomAdd(sw.bloom, segBloomK, id)
	sw.count++
	return nil
}

// finish writes the index, revoked list, bloom, and footer, then
// fsyncs. The file is complete and durable when finish returns.
func (sw *segWriter) finish() error {
	dataEnd := int64(8) + sw.off
	if err := sw.write(sw.index); err != nil {
		return err
	}
	revOff := dataEnd + int64(len(sw.index))
	if err := sw.write(sw.revoked); err != nil {
		return err
	}
	bloomOff := revOff + int64(len(sw.revoked))
	if err := sw.write(sw.bloom); err != nil {
		return err
	}
	foot := make([]byte, 0, segFooterSize)
	foot = append(foot, segMagic...)
	foot = binary.LittleEndian.AppendUint32(foot, segVersion)
	foot = binary.LittleEndian.AppendUint64(foot, sw.count)
	foot = binary.LittleEndian.AppendUint64(foot, uint64(dataEnd))
	foot = binary.LittleEndian.AppendUint64(foot, uint64(dataEnd))
	foot = binary.LittleEndian.AppendUint64(foot, uint64(len(sw.index)/24))
	foot = binary.LittleEndian.AppendUint64(foot, uint64(revOff))
	foot = binary.LittleEndian.AppendUint64(foot, uint64(len(sw.revoked)/16))
	foot = binary.LittleEndian.AppendUint64(foot, uint64(bloomOff))
	foot = binary.LittleEndian.AppendUint64(foot, uint64(len(sw.bloom)))
	foot = binary.LittleEndian.AppendUint32(foot, segBloomK)
	foot = binary.LittleEndian.AppendUint32(foot, crc32.Checksum(foot, castagnoli))
	if err := sw.write(foot); err != nil {
		return err
	}
	if err := sw.w.Flush(); err != nil {
		return err
	}
	if err := sw.f.Sync(); err != nil {
		return err
	}
	return sw.f.Close()
}

// abort closes and removes a partially written segment.
func (sw *segWriter) abort(path string) {
	sw.f.Close()
	os.Remove(path)
}

// segReader is an open, memory-mapped segment.
type segReader struct {
	path    string
	data    []byte // full file mapping
	release func() error
	// lists counts the segment lists (segList) holding this segment; the
	// last to let go unmaps it.
	lists atomic.Int32

	count      uint64
	dataStart  int64
	dataEnd    int64
	index      []byte
	indexCount int
	revoked    []byte
	bloom      []byte
	bloomK     uint32
}

// openSegment maps a segment and validates its footer.
func openSegment(path string) (*segReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	data, release, err := mapFile(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("ledger: mapping segment %s: %w", path, err)
	}
	sr := &segReader{path: path, data: data, release: release, dataStart: 8}
	fail := func(msg string) (*segReader, error) {
		release()
		return nil, fmt.Errorf("ledger: segment %s: %s", path, msg)
	}
	if len(data) < 8+segFooterSize || string(data[:4]) != segMagic {
		return fail("missing or short header")
	}
	foot := data[len(data)-segFooterSize:]
	if string(foot[:4]) != segMagic {
		return fail("bad footer magic")
	}
	if crc32.Checksum(foot[:segFooterSize-4], castagnoli) != binary.LittleEndian.Uint32(foot[segFooterSize-4:]) {
		return fail("footer crc mismatch")
	}
	if v := binary.LittleEndian.Uint32(foot[4:8]); v != segVersion {
		return fail(fmt.Sprintf("unsupported version %d", v))
	}
	sr.count = binary.LittleEndian.Uint64(foot[8:16])
	sr.dataEnd = int64(binary.LittleEndian.Uint64(foot[16:24]))
	indexOff := int64(binary.LittleEndian.Uint64(foot[24:32]))
	sr.indexCount = int(binary.LittleEndian.Uint64(foot[32:40]))
	revOff := int64(binary.LittleEndian.Uint64(foot[40:48]))
	revCount := int(binary.LittleEndian.Uint64(foot[48:56]))
	bloomOff := int64(binary.LittleEndian.Uint64(foot[56:64]))
	bloomLen := int64(binary.LittleEndian.Uint64(foot[64:72]))
	sr.bloomK = binary.LittleEndian.Uint32(foot[72:76])
	fileEnd := int64(len(data)) - segFooterSize
	if sr.dataEnd < sr.dataStart || indexOff != sr.dataEnd ||
		indexOff+int64(sr.indexCount*24) != revOff ||
		revOff+int64(revCount*16) != bloomOff ||
		bloomOff+bloomLen != fileEnd {
		return fail("inconsistent section offsets")
	}
	sr.index = data[indexOff : indexOff+int64(sr.indexCount*24)]
	sr.revoked = data[revOff : revOff+int64(revCount*16)]
	sr.bloom = data[bloomOff : bloomOff+bloomLen]
	return sr, nil
}

func (sr *segReader) close() error {
	if sr.release == nil {
		return nil
	}
	rel := sr.release
	sr.release = nil
	return rel()
}

// indexEntry returns the i-th sparse index entry.
func (sr *segReader) indexEntry(i int) (id ids.PhotoID, off int64) {
	e := sr.index[i*24 : i*24+24]
	var b [16]byte
	copy(b[:], e[:16])
	return ids.FromBytes(b), int64(binary.LittleEndian.Uint64(e[16:24]))
}

// find returns the payload of the identifier's claim frame, aliasing
// the mapping. Misses are resolved by the bloom filter in the common
// case; hits cost one index binary search plus a CRC-checked scan of at
// most indexStride frames.
func (sr *segReader) find(id ids.PhotoID) (payload []byte, ok bool, err error) {
	if !segBloomTest(sr.bloom, sr.bloomK, id) {
		return nil, false, nil
	}
	if sr.indexCount == 0 {
		return nil, false, nil
	}
	want := id.Bytes()
	// Greatest index entry with entry.id <= id.
	lo := sort.Search(sr.indexCount, func(i int) bool {
		e := sr.index[i*24 : i*24+16]
		return bytes.Compare(e, want[:]) > 0
	})
	if lo == 0 {
		return nil, false, nil
	}
	_, off := sr.indexEntry(lo - 1)
	off += sr.dataStart
	for i := 0; i < indexStride && off < sr.dataEnd; i++ {
		payload, next, err := frameAt(sr.data[:sr.dataEnd], off)
		if err != nil {
			return nil, false, fmt.Errorf("ledger: segment %s frame at %d: %w", sr.path, off, err)
		}
		if len(payload) < 17 {
			return nil, false, fmt.Errorf("ledger: segment %s frame at %d: short payload", sr.path, off)
		}
		switch bytes.Compare(payload[1:17], want[:]) {
		case 0:
			if payload[0] != recClaim {
				return nil, false, fmt.Errorf("ledger: segment %s holds non-claim record", sr.path)
			}
			return payload, true, nil
		case 1:
			return nil, false, nil // sorted: passed the slot
		}
		off = next
	}
	return nil, false, nil
}

// lookupState reads the state byte of the identifier's claim frame out
// of the mapping instead of decoding the record (public key, signature
// and timestamp token, four allocations).
func (sr *segReader) lookupState(id ids.PhotoID) (State, bool, error) {
	payload, ok, err := sr.find(id)
	if !ok {
		return StateUnknown, false, err
	}
	if len(payload) < 19 {
		return StateUnknown, false, errors.New("ledger: claim record too short")
	}
	return State(payload[17]), true, nil
}

// contains reports whether the segment holds the identifier (exact,
// bloom-prefiltered). Recovery uses it for revoked-list shadow checks.
func (sr *segReader) contains(id ids.PhotoID) (bool, error) {
	_, ok, err := sr.find(id)
	return ok, err
}

// revokedIDs returns the sealed revoked-state identifiers.
func (sr *segReader) revokedIDs() []ids.PhotoID {
	out := make([]ids.PhotoID, 0, len(sr.revoked)/16)
	for i := 0; i+16 <= len(sr.revoked); i += 16 {
		var b [16]byte
		copy(b[:], sr.revoked[i:i+16])
		out = append(out, ids.FromBytes(b))
	}
	return out
}

// segCursor walks one segment's claim frames in ID order for the k-way
// newest-wins merge used by compaction and state dumps. It reads a
// frame's identifier and state byte and decodes nothing else.
type segCursor struct {
	sr     *segReader
	next   int64  // offset of the frame after the current one
	hi, lo uint64 // the current frame's identifier, as cutKey orders it
	frame  []byte // the current frame, CRC-checked, aliasing the mapping
	done   bool
}

func (c *segCursor) advance() error {
	if c.next >= c.sr.dataEnd {
		c.done = true
		return nil
	}
	off := c.next
	payload, next, err := frameAt(c.sr.data[:c.sr.dataEnd], off)
	if err != nil {
		return fmt.Errorf("ledger: segment %s frame at %d: %w", c.sr.path, off, err)
	}
	if len(payload) < 19 || payload[0] != recClaim {
		return fmt.Errorf("ledger: segment %s holds non-claim record", c.sr.path)
	}
	c.hi, c.lo = binary.BigEndian.Uint64(payload[1:9]), binary.BigEndian.Uint64(payload[9:17])
	c.frame, c.next = c.sr.data[off:next], next
	return nil
}

// frameRevoked reads the state byte of a claim frame.
func frameRevoked(frame []byte) bool {
	st := State(frame[frameHeaderSize+17])
	return st == StateRevoked || st == StatePermanentlyRevoked
}

// mergeSegments walks the union of a memtable cut and the given segments
// in ascending ID order, handing fn the newest version of each record as
// its claim frame; fn must not keep the frame. segs must be ordered
// newest-first. The cut (cut and its sorted keys, see sortCut; both nil
// for a compaction) is newer than every segment, and its frames are
// encoded here into one reused buffer: a record's from its fields, an
// overlay's (see isOverlay) from the newest frame of its id in base, the
// segment list the cut was frozen over, with state and sequence number
// replaced. A segment's frames are passed as they lie in its mapping, so
// merging never materializes a Record.
func mergeSegments(cut []Record, keys []cutKey, base, segs []*segReader, fn func(id ids.PhotoID, revoked bool, frame []byte) error) error {
	cursors := make([]segCursor, len(segs))
	for i, sr := range segs {
		cursors[i] = segCursor{sr: sr, next: sr.dataStart}
		if err := cursors[i].advance(); err != nil {
			return err
		}
	}
	var scratch []byte
	for {
		// Find the smallest ID among the memtable head and all cursors;
		// on ties the newest source (memtable, then lowest cursor index)
		// wins and all older sources advance past the ID.
		var best *segCursor
		for i := range cursors {
			if c := &cursors[i]; !c.done && (best == nil || keyLess(c.hi, c.lo, best.hi, best.lo)) {
				best = c
			}
		}
		var id ids.PhotoID
		var hi, lo uint64
		var frame []byte
		switch {
		case len(keys) > 0 && (best == nil || !keyLess(best.hi, best.lo, keys[0].hi, keys[0].lo)):
			rec := &cut[keys[0].idx]
			var err error
			if scratch, err = appendCutFrame(scratch[:0], rec, base); err != nil {
				return err
			}
			id, hi, lo, frame = rec.ID, keys[0].hi, keys[0].lo, scratch
			keys = keys[1:]
		case best != nil:
			hi, lo, frame = best.hi, best.lo, best.frame
			id = ids.FromBytes([16]byte(frame[frameHeaderSize+1:]))
		default:
			return nil
		}
		for i := range cursors {
			for c := &cursors[i]; !c.done && c.hi == hi && c.lo == lo; {
				if err := c.advance(); err != nil {
					return err
				}
			}
		}
		if err := fn(id, frameRevoked(frame), frame); err != nil {
			return err
		}
	}
}

// appendCutFrame encodes one entry of a memtable cut onto dst as its
// claim frame, joining an overlay with id's newest frame in base.
func appendCutFrame(dst []byte, rec *Record, base []*segReader) ([]byte, error) {
	if !isOverlay(rec) {
		return appendClaimFrame(dst, rec)
	}
	sealed, ok, err := findSealed(base, rec.ID)
	if err == nil && !ok {
		err = fmt.Errorf("ledger: overlay on %s, which no segment holds", rec.ID)
	}
	if err != nil {
		return nil, err
	}
	return appendOverlayFrame(dst, sealed, rec.State, rec.OpSeq)
}
