package photo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestIRSPRoundTrip(t *testing.T) {
	im := Synth(10, 48, 32)
	im.Meta.Set(KeyIRSID, "SOMEID")
	im.Meta.Set(KeyIRSLedgerURL, "http://ledger.example")
	im.Meta.Set("camera.model", "SynthCam 9000")

	var buf bytes.Buffer
	if err := EncodeIRSP(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIRSP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !im.Equal(got) {
		t.Error("pixels changed through IRSP round trip")
	}
	for _, k := range im.Meta.Keys() {
		if got.Meta.Get(k) != im.Meta.Get(k) {
			t.Errorf("metadata %q: got %q want %q", k, got.Meta.Get(k), im.Meta.Get(k))
		}
	}
}

func TestIRSPRGBRoundTrip(t *testing.T) {
	im := SynthRGB(11, 24, 24)
	var buf bytes.Buffer
	if err := EncodeIRSP(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIRSP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !im.Equal(got) {
		t.Error("RGB pixels changed through IRSP round trip")
	}
}

func TestIRSPRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE!aaaaaaaaaaaaaaaaaaaa"),
		"truncated": []byte("IRSP1\x00\x00"),
	}
	for name, b := range cases {
		if _, err := DecodeIRSP(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

func TestIRSPRejectsHugeDims(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("IRSP1")
	// 1<<20 x 1<<20 x 1 channel
	buf.Write([]byte{0, 16, 0, 0, 0, 16, 0, 0, 0, 0, 0, 1})
	buf.Write([]byte{0, 0, 0, 0})
	if _, err := DecodeIRSP(&buf); err == nil {
		t.Error("huge dimensions accepted")
	}
}

func TestPNMRoundTripGray(t *testing.T) {
	im := Synth(12, 33, 17) // odd dims on purpose
	var buf bytes.Buffer
	if err := EncodePNM(&buf, im); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "P5\n") {
		t.Errorf("gray image should encode as P5, got %q", buf.String()[:2])
	}
	got, err := DecodePNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !im.Equal(got) {
		t.Error("pixels changed through PGM round trip")
	}
}

func TestPNMRoundTripRGB(t *testing.T) {
	im := SynthRGB(13, 20, 20)
	var buf bytes.Buffer
	if err := EncodePNM(&buf, im); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "P6\n") {
		t.Errorf("rgb image should encode as P6")
	}
	got, err := DecodePNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !im.Equal(got) {
		t.Error("pixels changed through PPM round trip")
	}
}

func TestPNMStripsMetadata(t *testing.T) {
	im := Synth(14, 16, 16)
	im.Meta.Set(KeyIRSID, "X")
	got, err := StripViaPNM(im)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Meta.Keys()) != 0 {
		t.Error("PNM round trip preserved metadata; it must strip")
	}
	if !im.Equal(got) {
		t.Error("PNM round trip changed pixels")
	}
}

func TestPNMComments(t *testing.T) {
	data := "P5\n# a comment\n4 2\n# another\n255\n" + string(make([]byte, 8))
	im, err := DecodePNM(strings.NewReader(data))
	if err != nil {
		t.Fatalf("comment handling: %v", err)
	}
	if im.W != 4 || im.H != 2 {
		t.Errorf("dims %dx%d, want 4x2", im.W, im.H)
	}
}

func TestPNMRejectsGarbage(t *testing.T) {
	for name, s := range map[string]string{
		"empty":    "",
		"badmagic": "P9\n2 2\n255\n....",
		"badmax":   "P5\n2 2\n65535\n....",
		"short":    "P5\n4 4\n255\nxx",
	} {
		if _, err := DecodePNM(strings.NewReader(s)); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

// hostileIRSP is a container whose header claims w×h×ch pixels and
// nMeta metadata pairs, followed by tail and nothing else.
func hostileIRSP(w, h, ch, nMeta uint32, tail []byte) []byte {
	b := []byte(irspMagic)
	for _, v := range []uint32{w, h, ch, nMeta} {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return append(b, tail...)
}

// TestDecodeSizesBuffersByBytesReceived: dimensions and string lengths
// in a header are the sender's claim. A decoder fed a few bytes that
// claim a 768 MiB image (or a megabyte of metadata) must fail having
// allocated in proportion to what it was sent, whether or not its
// reader can say how much is left.
func TestDecodeSizesBuffersByBytesReceived(t *testing.T) {
	megString := binary.BigEndian.AppendUint32(nil, 1<<20) // a key claiming 1 MiB
	cases := []struct {
		name   string
		decode func(io.Reader) (*Image, error)
		body   []byte
	}{
		{"IRSP 16384x16384x3, no payload", DecodeIRSP, hostileIRSP(maxDim, maxDim, 3, 0, nil)},
		{"IRSP 16384x16384x3, 100 KiB of payload", DecodeIRSP, hostileIRSP(maxDim, maxDim, 3, 0, make([]byte, 100<<10))},
		{"IRSP 65536 metadata strings of 1 MiB", DecodeIRSP, hostileIRSP(8, 8, 1, 1<<16, megString)},
		{"PPM 16384x16384", DecodePNM, []byte("P6\n16384 16384\n255\n")},
		{"PGM 16384x16384, 100 KiB of payload", DecodePNM, append([]byte("P5\n16384 16384\n255\n"), make([]byte, 100<<10)...)},
	}
	for _, tc := range cases {
		for _, sized := range []bool{true, false} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var r io.Reader = bytes.NewReader(tc.body)
			if !sized {
				r = struct{ io.Reader }{r} // hides Len, as a network body does
			}
			_, err := tc.decode(r)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadFormat) {
				t.Errorf("%s (sized=%v): error %v, want ErrBadFormat", tc.name, sized, err)
			}
			if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+4*len(tc.body)); got > ceiling {
				t.Errorf("%s (sized=%v): a %d-byte input allocated %d bytes, ceiling %d", tc.name, sized, len(tc.body), got, ceiling)
			}
		}
	}
}

// TestDecodeGrowsWithUnsizedReader: an honest container larger than the
// first chunk decodes to the same image through a reader that cannot
// report its length (the single-upload HTTP path).
func TestDecodeGrowsWithUnsizedReader(t *testing.T) {
	im := SynthRGB(12, 320, 300) // 288,000 pixel bytes: two doublings past growChunk
	im.Meta.Set(KeyIRSID, "SOMEID")
	var irsp, pnm bytes.Buffer
	if err := EncodeIRSP(&irsp, im); err != nil {
		t.Fatal(err)
	}
	if err := EncodePNM(&pnm, im); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIRSP(struct{ io.Reader }{&irsp})
	if err != nil || !got.Equal(im) || got.Meta.Get(KeyIRSID) != "SOMEID" {
		t.Errorf("IRSP through an unsized reader: err %v", err)
	}
	got, err = DecodePNM(struct{ io.Reader }{&pnm})
	if err != nil || !got.Equal(im) {
		t.Errorf("PNM through an unsized reader: err %v", err)
	}
}
