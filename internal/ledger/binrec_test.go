package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	recs := makeRecords(t, 9, 3, 77)
	var buf []byte
	var err error
	buf, err = appendClaimFrame(buf, &recs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf = appendOpFrame(buf, recs[1].ID, OpRevoke, 4)
	buf = appendPermFrame(buf, recs[2].ID)

	var off int64
	payload, next, err := frameAt(buf, off)
	if err != nil {
		t.Fatal(err)
	}
	r, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if r.kind != recClaim || r.id != recs[0].ID {
		t.Fatalf("claim frame decoded as %+v", r)
	}
	got := r.rec
	if got.State != recs[0].State || got.OpSeq != recs[0].OpSeq ||
		got.Custodial != recs[0].Custodial ||
		got.ContentHash != recs[0].ContentHash ||
		!bytes.Equal(got.PubKey, recs[0].PubKey) ||
		!bytes.Equal(got.HashSig, recs[0].HashSig) ||
		!bytes.Equal(got.Timestamp.Marshal(), recs[0].Timestamp.Marshal()) {
		t.Fatalf("claim round trip mismatch:\n got %+v\nwant %+v", got, recs[0])
	}

	payload, next, err = frameAt(buf, next)
	if err != nil {
		t.Fatal(err)
	}
	r, err = decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if r.kind != recOp || r.id != recs[1].ID || r.op != OpRevoke || r.seq != 4 {
		t.Fatalf("op frame decoded as %+v", r)
	}

	payload, next, err = frameAt(buf, next)
	if err != nil {
		t.Fatal(err)
	}
	r, err = decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if r.kind != recPerm || r.id != recs[2].ID {
		t.Fatalf("perm frame decoded as %+v", r)
	}
	if next != int64(len(buf)) {
		t.Fatalf("frame walk ended at %d, want %d", next, len(buf))
	}
}

// TestFrameTornVersusCorrupt pins the classification recovery depends
// on: incomplete extents at end-of-buffer are torn (recoverable crash),
// bad bytes with complete frames after them are corruption (loud).
func TestFrameTornVersusCorrupt(t *testing.T) {
	id := makeRecords(t, 9, 1, 3)[0].ID
	frame := appendPermFrame(nil, id)
	two := appendPermFrame(append([]byte(nil), frame...), id)

	// Every strict prefix of a single frame is torn.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := frameAt(frame[:cut], 0); !errors.Is(err, errFrameTorn) {
			t.Fatalf("prefix len %d: err = %v, want torn", cut, err)
		}
	}
	// A corrupted first frame with an intact frame after it is corrupt.
	bad := append([]byte(nil), two...)
	bad[frameHeaderSize] ^= 0xff
	if _, _, err := frameAt(bad, 0); !errors.Is(err, errFrameCorrupt) {
		t.Fatalf("mid-buffer bad crc: err = %v, want corrupt", err)
	}
	// The same corruption on the final frame is torn (a crash can tear
	// payload bytes that were never written).
	bad = append([]byte(nil), frame...)
	bad[frameHeaderSize] ^= 0xff
	if _, _, err := frameAt(bad, 0); !errors.Is(err, errFrameTorn) {
		t.Fatalf("final-frame bad crc: err = %v, want torn", err)
	}
	// A hostile length prefix must not drive an allocation or a scan.
	huge := make([]byte, frameHeaderSize+8)
	binary.LittleEndian.PutUint32(huge, 1<<30)
	if _, _, err := frameAt(huge, 0); !errors.Is(err, errFrameCorrupt) {
		t.Fatalf("hostile length with content: err = %v, want corrupt", err)
	}
	if _, _, err := frameAt(huge[:frameHeaderSize], 0); !errors.Is(err, errFrameTorn) {
		t.Fatal("hostile length at EOF should read as torn")
	}
}

// TestClaimFrameGolden pins the format-version-2 claim frame over the
// FuzzFrameDecode corpus records plus a custodial one and a wide opseq
// varint, appended to a non-empty buffer and to a nil one. Each frame is
// first checked field by field against the layout PROTOCOL.md gives
// (236 bytes with a one-byte sequence varint), then the whole buffer
// against its pinned hash: segment and WAL files must not change
// without a format revision.
func TestClaimFrameGolden(t *testing.T) {
	recs := makeRecords(t, 9, 3, 1)
	recs[1].Custodial = true
	recs[2].OpSeq = 1 << 40
	buf := []byte("prefix")
	for i := range recs {
		var err error
		if buf, err = appendClaimFrame(buf, &recs[i]); err != nil {
			t.Fatal(err)
		}
		alone, err := appendClaimFrame(nil, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(alone) != string(buf[len(buf)-len(alone):]) {
			t.Fatalf("record %d: frame depends on the buffer it is appended to", i)
		}
		if want := specClaimFrame(&recs[i]); !bytes.Equal(alone, want) {
			t.Fatalf("record %d: frame\n%x\ndiffers from the documented layout\n%x", i, alone, want)
		}
	}
	if n := len(appendPermFrame(nil, recs[0].ID)); n != 25 {
		t.Fatalf("perm frame is %d bytes, want 25", n)
	}
	if f, _ := appendClaimFrame(nil, &recs[0]); len(f) != 236 {
		t.Fatalf("claim frame with a one-byte sequence varint is %d bytes, want 236", len(f))
	}
	const want = "8f5a99e9e8acc982c8896e84b9bc93e692a2bc81e0227fa778721d5d723768f8"
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("claim frames changed: sha256 %s, want %s (%d bytes)", got, want, len(buf))
	}
}

// specClaimFrame writes rec's claim frame field by field from the
// PROTOCOL.md table, with no help from the encoder.
func specClaimFrame(rec *Record) []byte {
	var p bytes.Buffer
	p.WriteByte('C')
	id := rec.ID.Bytes()
	p.Write(id[:])
	p.WriteByte(byte(rec.State))
	custodial := byte(0)
	if rec.Custodial {
		custodial = 1
	}
	p.WriteByte(custodial)
	for v := rec.OpSeq; ; v >>= 7 {
		if v < 0x80 {
			p.WriteByte(byte(v))
			break
		}
		p.WriteByte(byte(v) | 0x80)
	}
	p.Write(rec.ContentHash[:])
	p.Write(rec.PubKey)
	p.Write(rec.HashSig)
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], rec.Timestamp.Serial)
	p.Write(u[:])
	binary.LittleEndian.PutUint64(u[:], uint64(rec.Timestamp.Time.UnixNano()))
	p.Write(u[:])
	p.Write(rec.Timestamp.Sig)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(p.Len()))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(p.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
	return append(frame, p.Bytes()...)
}

// FuzzFrameDecode: a payload decodes to a record or is refused, and a
// claim that decodes re-encodes to exactly its payload — the frame has
// one encoding per record, which StateHash relies on. The seeds are the
// three kinds, then hostile claims: a format-version-1 claim frame as
// the parent format wrote it (testdata), one cut short inside its last
// fixed-size field, one with a trailing byte, and one whose sequence
// varint is not minimal.
func FuzzFrameDecode(f *testing.F) {
	recs := makeRecords(f, 9, 3, 1)
	seed, _ := appendClaimPayload(nil, &recs[0])
	f.Add(seed)
	op := appendOpFrame(nil, recs[1].ID, OpUnrevoke, 9)
	f.Add(op[frameHeaderSize:])
	perm := appendPermFrame(nil, recs[2].ID)
	f.Add(perm[frameHeaderSize:])
	f.Add([]byte{})
	f.Add([]byte("COPtrash"))
	v1, err := os.ReadFile(filepath.Join("testdata", "format-v1", "walonly", walFileName(1)))
	if err != nil {
		f.Fatal(err)
	}
	v1claim, _, err := frameAt(v1, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1claim)
	f.Add(seed[:len(seed)-1])
	f.Add(append(append([]byte(nil), seed...), 0))
	wide := append(append(append([]byte(nil), seed[:19]...), seed[19]|0x80, 0), seed[20:]...)
	f.Add(wide)
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecord(payload)
		if err != nil {
			return
		}
		if r.kind == recClaim {
			enc, err := appendClaimPayload(nil, r.rec)
			if err != nil {
				t.Fatalf("re-encode of decoded claim failed: %v", err)
			}
			if !bytes.Equal(enc, payload) {
				t.Fatalf("claim %x re-encodes as %x", payload, enc)
			}
		}
	})
}

// TestHostileClaimFramesRefused runs FuzzFrameDecode's hostile seeds as
// a plain test: each must be refused.
func TestHostileClaimFramesRefused(t *testing.T) {
	rec := makeRecords(t, 9, 1, 1)[0]
	good, err := appendClaimPayload(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRecord(good); err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "format-v1", "walonly", walFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	v1claim, _, err := frameAt(v1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"format version 1":          v1claim,
		"token signature cut short": good[:len(good)-1],
		"key cut short":             good[:19+1+32+16],
		"trailing byte":             append(append([]byte(nil), good...), 0),
		"non-minimal varint":        append(append(append([]byte(nil), good[:19]...), good[19]|0x80, 0), good[20:]...),
		"custodial byte 2":          append(append(append([]byte(nil), good[:18]...), 2), good[19:]...),
	}
	for name, payload := range cases {
		if _, err := decodeRecord(payload); err == nil {
			t.Errorf("%s: decoded", name)
		}
		if _, _, _, _, err := claimHead(payload); err == nil && name != "non-minimal varint" && name != "custodial byte 2" {
			t.Errorf("%s: claimHead accepted it", name)
		}
	}
}
