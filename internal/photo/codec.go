package photo

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file implements two interchange formats:
//
//   - IRSP: a metadata-preserving container (magic "IRSP1") holding the
//     pixel payload plus the full Metadata table. This stands in for
//     C2PA-style metadata carriage (paper §2, "Relevant Technologies");
//   - PGM/PPM (binary P5/P6): plain pixel export. Writing these DISCARDS
//     metadata by construction, which is exactly the behaviour of sites
//     that strip EXIF (paper Goal #5) — tests and experiments use a
//     PGM/PPM round trip to model "metadata lost, watermark must carry
//     the label".

// ErrBadFormat is returned when decoding input that is not a recognized
// container.
var ErrBadFormat = errors.New("photo: unrecognized or corrupt container")

const irspMagic = "IRSP1"

// EncodeIRSP writes the image and its metadata to w in IRSP format.
func EncodeIRSP(w io.Writer, im *Image) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(irspMagic); err != nil {
		return err
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(im.W))
	binary.BigEndian.PutUint32(hdr[4:], uint32(im.H))
	binary.BigEndian.PutUint32(hdr[8:], uint32(im.Channels))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	// Metadata: count, then length-prefixed key/value pairs in sorted
	// key order so encoding is deterministic.
	keys := im.Meta.Keys()
	if err := binary.Write(bw, binary.BigEndian, uint32(len(keys))); err != nil {
		return err
	}
	writeStr := func(s string) error {
		if err := binary.Write(bw, binary.BigEndian, uint32(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	for _, k := range keys {
		if err := writeStr(k); err != nil {
			return err
		}
		if err := writeStr(im.Meta.Get(k)); err != nil {
			return err
		}
	}
	if _, err := bw.Write(im.Pix); err != nil {
		return err
	}
	return bw.Flush()
}

// maxDim bounds decoded image dimensions. It is a sanity limit on the
// geometry, not on memory: 16384×16384×3 is 768 MiB, so a length taken
// from a header is never what a buffer is sized by — see readClaimed.
const maxDim = 1 << 14

// growChunk is the first allocation for a payload whose source cannot
// say how much it holds.
const growChunk = 64 << 10

// readClaimed reads the n bytes a header claims follow. A claim is
// checked against the bytes that are really there before anything is
// sized by it: when the source reports what it has left (bytes.Reader,
// bytes.Buffer and strings.Reader do, which covers every in-memory
// container, the batch upload path's frames among them) a claim larger
// than that fails without allocating; otherwise the buffer starts at
// growChunk and doubles as bytes arrive, so it never exceeds twice
// what was received. br must be the only reader of src.
func readClaimed(br *bufio.Reader, src io.Reader, n int) ([]byte, error) {
	if lr, ok := src.(interface{ Len() int }); ok {
		if n > br.Buffered()+lr.Len() {
			return nil, io.ErrUnexpectedEOF
		}
		buf := make([]byte, n)
		_, err := io.ReadFull(br, buf)
		return buf, err
	}
	buf := make([]byte, 0, min(n, growChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(br, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeIRSP reads an IRSP container from r. It reads r through a
// bufio.Reader — r itself when r is one of the default size or larger —
// and stops at the container's last byte, so consecutive containers
// decode from one reader.
func DecodeIRSP(r io.Reader) (*Image, error) {
	return parseIRSP(&irspSource{br: bufio.NewReader(r), src: r})
}

// ParseIRSP parses the IRSP container at the start of b in place, with
// no read buffer and no copy of the pixels: the image's Pix is a
// sub-slice of b (its capacity ends where the pixels do), so b must not
// be written while the image is in use, and whoever keeps the image
// beyond b's lifetime keeps a copy (Image.Clone). Metadata strings are
// copied. Bytes after the container are ignored, as DecodeIRSP leaves
// them unread: b is accepted and rejected exactly as DecodeIRSP accepts
// and rejects bytes.NewReader(b).
func ParseIRSP(b []byte) (*Image, error) {
	return parseIRSP(&irspSource{mem: b})
}

// irspSource is where the IRSP parser takes its bytes from: a container
// held in memory (mem, consumed from the front) when br is nil, else
// the stream br, which reads src. Either way a length the container
// claims is checked against the bytes really there before anything is
// sized by it.
type irspSource struct {
	mem []byte
	br  *bufio.Reader
	src io.Reader
}

// next returns the next n bytes for the parser to read and drop. From a
// stream they are valid only until the following call.
func (s *irspSource) next(n int) ([]byte, error) {
	if s.br == nil || n > s.br.Size() {
		return s.keep(n)
	}
	b, err := s.br.Peek(n)
	if err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	_, _ = s.br.Discard(n)
	return b, nil
}

// keep returns the next n bytes for the image to keep: from memory a
// sub-slice of the container whose capacity ends with it, from a stream
// a buffer sized by the bytes received (readClaimed).
func (s *irspSource) keep(n int) ([]byte, error) {
	if s.br != nil {
		return readClaimed(s.br, s.src, n)
	}
	if n > len(s.mem) {
		return nil, io.ErrUnexpectedEOF
	}
	b := s.mem[:n:n]
	s.mem = s.mem[n:]
	return b, nil
}

// str reads one length-prefixed metadata string.
func (s *irspSource) str() (string, error) {
	b, err := s.next(4)
	if err != nil {
		return "", err
	}
	n := binary.BigEndian.Uint32(b)
	if n > 1<<20 {
		return "", fmt.Errorf("metadata string too long: %d", n)
	}
	if b, err = s.next(int(n)); err != nil {
		return "", err
	}
	return string(b), nil
}

// parseIRSP is the one IRSP parser, over either byte source.
func parseIRSP(s *irspSource) (*Image, error) {
	magic, err := s.next(len(irspMagic))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(magic) != irspMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	hdr, err := s.next(12)
	if err != nil {
		return nil, fmt.Errorf("%w: short header", ErrBadFormat)
	}
	w := int(binary.BigEndian.Uint32(hdr[0:]))
	h := int(binary.BigEndian.Uint32(hdr[4:]))
	ch := int(binary.BigEndian.Uint32(hdr[8:]))
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim || (ch != 1 && ch != 3) {
		return nil, fmt.Errorf("%w: bad dimensions %dx%dx%d", ErrBadFormat, w, h, ch)
	}
	count, err := s.next(4)
	if err != nil {
		return nil, fmt.Errorf("%w: short metadata count", ErrBadFormat)
	}
	nMeta := binary.BigEndian.Uint32(count)
	if nMeta > 1<<16 {
		return nil, fmt.Errorf("%w: absurd metadata count %d", ErrBadFormat, nMeta)
	}
	// Metadata first, pixels last, each sized by what has arrived: the
	// header's dimensions are the sender's claim.
	im := &Image{W: w, H: h, Channels: ch, Meta: NewMetadata()}
	for i := uint32(0); i < nMeta; i++ {
		k, err := s.str()
		if err != nil {
			return nil, fmt.Errorf("%w: metadata key: %v", ErrBadFormat, err)
		}
		v, err := s.str()
		if err != nil {
			return nil, fmt.Errorf("%w: metadata value: %v", ErrBadFormat, err)
		}
		im.Meta.Set(k, v)
	}
	pix, err := s.keep(w * h * ch)
	if err != nil {
		return nil, fmt.Errorf("%w: short pixel data", ErrBadFormat)
	}
	im.Pix = pix
	return im, nil
}

// EncodePNM writes the image as binary PGM (P5, grayscale) or PPM (P6,
// RGB). Metadata is NOT written: PNM export models the metadata-stripping
// path.
func EncodePNM(w io.Writer, im *Image) error {
	bw := bufio.NewWriter(w)
	magic := "P5"
	if im.Channels == 3 {
		magic = "P6"
	}
	if _, err := fmt.Fprintf(bw, "%s\n%d %d\n255\n", magic, im.W, im.H); err != nil {
		return err
	}
	if _, err := bw.Write(im.Pix); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodePNM reads a binary PGM/PPM image. The returned image has empty
// metadata.
func DecodePNM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic, err := pnmToken(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	var ch int
	switch magic {
	case "P5":
		ch = 1
	case "P6":
		ch = 3
	default:
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, magic)
	}
	var w, h, maxv int
	for _, dst := range []*int{&w, &h, &maxv} {
		tok, err := pnmToken(br)
		if err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
		}
		if _, err := fmt.Sscanf(tok, "%d", dst); err != nil {
			return nil, fmt.Errorf("%w: header token %q", ErrBadFormat, tok)
		}
	}
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim || maxv != 255 {
		return nil, fmt.Errorf("%w: dims %dx%d max %d", ErrBadFormat, w, h, maxv)
	}
	pix, err := readClaimed(br, r, w*h*ch)
	if err != nil {
		return nil, fmt.Errorf("%w: short pixel data", ErrBadFormat)
	}
	return &Image{W: w, H: h, Channels: ch, Pix: pix, Meta: NewMetadata()}, nil
}

// pnmToken reads the next whitespace-delimited token, skipping '#'
// comments per the PNM spec. Exactly one byte of whitespace terminates
// the final header token before binary data begins.
func pnmToken(br *bufio.Reader) (string, error) {
	var buf bytes.Buffer
	inComment := false
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && buf.Len() > 0 {
				return buf.String(), nil
			}
			return "", err
		}
		switch {
		case inComment:
			if b == '\n' {
				inComment = false
			}
		case b == '#':
			inComment = true
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if buf.Len() > 0 {
				return buf.String(), nil
			}
		default:
			buf.WriteByte(b)
		}
	}
}

// StripViaPNM round-trips the image through PNM encoding, returning a
// copy with identical pixels and no metadata — the canonical "site
// stripped my EXIF" operation used across tests and experiments.
func StripViaPNM(im *Image) (*Image, error) {
	var buf bytes.Buffer
	if err := EncodePNM(&buf, im); err != nil {
		return nil, err
	}
	return DecodePNM(&buf)
}
