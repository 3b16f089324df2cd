package photo

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
)

// refDecodeIRSP is the stream decoder as it was before the parser took
// its bytes from either memory or a stream, kept verbatim (its
// readClaimed as refReadClaimed) as the oracle for both sources.
func refDecodeIRSP(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(irspMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(magic) != irspMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header", ErrBadFormat)
	}
	w := int(binary.BigEndian.Uint32(hdr[0:]))
	h := int(binary.BigEndian.Uint32(hdr[4:]))
	ch := int(binary.BigEndian.Uint32(hdr[8:]))
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim || (ch != 1 && ch != 3) {
		return nil, fmt.Errorf("%w: bad dimensions %dx%dx%d", ErrBadFormat, w, h, ch)
	}
	var nMeta uint32
	if err := binary.Read(br, binary.BigEndian, &nMeta); err != nil {
		return nil, fmt.Errorf("%w: short metadata count", ErrBadFormat)
	}
	if nMeta > 1<<16 {
		return nil, fmt.Errorf("%w: absurd metadata count %d", ErrBadFormat, nMeta)
	}
	readStr := func() (string, error) {
		var n uint32
		if err := binary.Read(br, binary.BigEndian, &n); err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("metadata string too long: %d", n)
		}
		b, err := refReadClaimed(br, r, int(n))
		return string(b), err
	}
	// Metadata first, pixels last, each sized by what has arrived: the
	// header's dimensions are the sender's claim.
	im := &Image{W: w, H: h, Channels: ch, Meta: NewMetadata()}
	for i := uint32(0); i < nMeta; i++ {
		k, err := readStr()
		if err != nil {
			return nil, fmt.Errorf("%w: metadata key: %v", ErrBadFormat, err)
		}
		v, err := readStr()
		if err != nil {
			return nil, fmt.Errorf("%w: metadata value: %v", ErrBadFormat, err)
		}
		im.Meta.Set(k, v)
	}
	pix, err := refReadClaimed(br, r, w*h*ch)
	if err != nil {
		return nil, fmt.Errorf("%w: short pixel data", ErrBadFormat)
	}
	im.Pix = pix
	return im, nil
}

func refReadClaimed(br *bufio.Reader, src io.Reader, n int) ([]byte, error) {
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

// sameImage reports how got differs from want — geometry, pixels or
// any metadata entry — or "" when it does not.
func sameImage(got, want *Image) string {
	if got.W != want.W || got.H != want.H || got.Channels != want.Channels || !bytes.Equal(got.Pix, want.Pix) {
		return fmt.Sprintf("%dx%dx%d (%d pixel bytes), want %dx%dx%d (%d)",
			got.W, got.H, got.Channels, len(got.Pix), want.W, want.H, want.Channels, len(want.Pix))
	}
	gk, wk := got.Meta.Keys(), want.Meta.Keys()
	if len(gk) != len(wk) {
		return fmt.Sprintf("%d metadata keys, want %d", len(gk), len(wk))
	}
	for i, k := range wk {
		if gk[i] != k || got.Meta.Get(k) != want.Meta.Get(k) {
			return fmt.Sprintf("metadata %q = %q, want %q = %q", gk[i], got.Meta.Get(gk[i]), k, want.Meta.Get(k))
		}
	}
	return ""
}

// checkParseAgainstReference decodes data with the in-memory parse and
// with DecodeIRSP through a sized and an unsized reader, and demands
// the oracle's verdict and image from each, with no pixel buffer larger
// than the input.
func checkParseAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := refDecodeIRSP(bytes.NewReader(data))
	for _, arm := range []struct {
		name  string
		parse func() (*Image, error)
	}{
		{"ParseIRSP", func() (*Image, error) { return ParseIRSP(data) }},
		{"DecodeIRSP", func() (*Image, error) { return DecodeIRSP(bytes.NewReader(data)) }},
		{"DecodeIRSP unsized", func() (*Image, error) { return DecodeIRSP(struct{ io.Reader }{bytes.NewReader(data)}) }},
	} {
		got, err := arm.parse()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s of %d bytes: error %v, reference %v", arm.name, len(data), err, wantErr)
		}
		if err != nil {
			continue
		}
		if diff := sameImage(got, want); diff != "" {
			t.Fatalf("%s of %d bytes: %s", arm.name, len(data), diff)
		}
		if cap(got.Pix) > len(data) {
			t.Fatalf("%s of %d bytes: pixel buffer of capacity %d", arm.name, len(data), cap(got.Pix))
		}
	}
}

// parseSeeds are the containers codec_test.go builds — gray and RGB
// round trips with metadata, the garbage and hostile headers — plus the
// 21-byte claim of a 16384×16384×3 image and a container followed by
// bytes of another.
func parseSeeds(t testing.TB) [][]byte {
	encode := func(im *Image) []byte {
		var buf bytes.Buffer
		if err := EncodeIRSP(&buf, im); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	gray := Synth(10, 48, 32)
	gray.Meta.Set(KeyIRSID, "SOMEID")
	gray.Meta.Set(KeyIRSLedgerURL, "http://ledger.example")
	gray.Meta.Set("camera.model", "SynthCam 9000")
	rgb := SynthRGB(11, 24, 24)
	round := encode(gray)
	return [][]byte{
		round,
		encode(rgb),
		append(append([]byte(nil), round...), encode(rgb)...),
		round[:len(round)-1],
		{},
		[]byte("NOPE!aaaaaaaaaaaaaaaaaaaa"),
		[]byte("IRSP1\x00\x00"),
		hostileIRSP(1<<20, 1<<20, 1, 0, nil),
		hostileIRSP(maxDim, maxDim, 3, 0, nil),
		hostileIRSP(8, 8, 1, 1, binary.BigEndian.AppendUint32(nil, 1<<20)),
		hostileIRSP(8, 8, 1, 0, make([]byte, 64)),
	}
}

// TestParseIRSPMatchesReference runs the seeds through every arm, and
// pins what "in place" means: the pixels alias the input, the metadata
// does not.
func TestParseIRSPMatchesReference(t *testing.T) {
	for _, data := range parseSeeds(t) {
		checkParseAgainstReference(t, data)
	}
	data := parseSeeds(t)[0]
	im, err := ParseIRSP(data)
	if err != nil {
		t.Fatal(err)
	}
	if &im.Pix[0] != &data[len(data)-len(im.Pix)] {
		t.Error("ParseIRSP copied the pixels")
	}
	for i := range data[:len(data)-len(im.Pix)] {
		data[i] = 0
	}
	if im.Meta.Get(KeyIRSID) != "SOMEID" {
		t.Error("ParseIRSP's metadata aliases the input")
	}
}

// FuzzParseIRSP: for any input the in-memory parse and both stream arms
// accept and reject as the retained stream decoder does, with equal
// images and no pixel buffer sized past the input; nothing panics.
func FuzzParseIRSP(f *testing.F) {
	for _, data := range parseSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(checkParseAgainstReference)
}
