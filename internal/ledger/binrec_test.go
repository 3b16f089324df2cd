package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
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

// TestClaimFrameGolden pins the claim frame encoding to the bytes the
// copy-then-frame encoder produced before frames were encoded in place
// (the hash was taken at that commit), over the FuzzFrameDecode corpus
// records plus a custodial one and a wide opseq varint, appended to a
// non-empty buffer and to a nil one. Segment and WAL files written
// before and after must be the same files.
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
	}
	const want = "841b7fc6d4dd66c31b083e59f376488b892f795e787318522458e9ba72ed5303"
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("claim frames changed: sha256 %s, want %s (%d bytes)", got, want, len(buf))
	}
}

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
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecord(payload)
		if err != nil {
			return
		}
		if r.kind == recClaim {
			// A decodable claim must re-encode and decode to the same
			// record (the canonical form StateHash relies on).
			enc, err := appendClaimPayload(nil, r.rec)
			if err != nil {
				t.Fatalf("re-encode of decoded claim failed: %v", err)
			}
			r2, err := decodeRecord(enc)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if r2.id != r.id || r2.rec.State != r.rec.State || r2.rec.OpSeq != r.rec.OpSeq ||
				!bytes.Equal(r2.rec.PubKey, r.rec.PubKey) {
				t.Fatal("claim canonical form unstable")
			}
		}
	})
}
