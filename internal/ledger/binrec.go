package ledger

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"irs/internal/ids"
	"irs/internal/tsa"
)

// Binary record framing, shared by the group-commit WAL and the sorted
// segment files. Every record is one frame:
//
//	u32 payload length (LE) | u32 CRC32-C of payload (LE) | payload
//
// and the payload is a tagged union:
//
//	claim: 'C' | id[16] | state u8 | custodial u8 | opseq uvarint |
//	       hash[32] | pub[32] | sig[64] | token serial u64 |
//	       token unixnano u64 | token sig[64]
//	op:    'O' | id[16] | op u8 | seq uvarint
//	perm:  'P' | id[16]
//
// The CRC covers the payload only; the length prefix is sanity-bounded
// by maxFramePayload so a torn or garbage length can never drive a
// multi-gigabyte allocation. Frames are self-contained: a reader that
// finds a frame whose claimed extent runs past end-of-file, or whose
// CRC fails on the final frame, is looking at a torn append; a CRC
// failure with complete frames after it is corruption and is refused.

const (
	frameHeaderSize = 8
	// maxFramePayload bounds a single record. Claim records are 228
	// bytes (one more per sequence-varint byte past the first); 1 MiB
	// keeps hostile length prefixes harmless.
	maxFramePayload = 1 << 20
)

// castagnoli is the CRC32-C table (hardware-accelerated on most CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Binary record kinds.
const (
	recClaim byte = 'C'
	recOp    byte = 'O'
	recPerm  byte = 'P'
)

// Framing and decode errors.
var (
	errFrameTorn    = errors.New("ledger: torn frame at end of log")
	errFrameCorrupt = errors.New("ledger: frame corrupt")
)

// binRec is one decoded binary record.
type binRec struct {
	kind byte
	id   ids.PhotoID

	// claim fields (kind == recClaim); rec.ID duplicates id.
	rec *Record

	// op fields (kind == recOp).
	op  Op
	seq uint64
}

// frameHeader is the eight bytes an encoder reserves before it writes a
// payload in place; sealFrame fills them in.
var frameHeader [frameHeaderSize]byte

// sealFrame completes the frame whose header was reserved at dst[hdr:]
// and whose payload runs to the end of dst: it patches length and CRC.
func sealFrame(dst []byte, hdr int) []byte {
	payload := dst[hdr+frameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[hdr:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[hdr+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// A claim frame stores each fact once: the token's digest is the
// content hash (Claim stamps exactly that), and the key, claim signature
// and token have the sizes the protocol fixes, so none needs a length.
// claimTailSize is what follows the sequence varint: content hash, key,
// claim signature, token serial and time, token signature.
const claimTailSize = 32 + ed25519.PublicKeySize + ed25519.SignatureSize + 8 + 8 + ed25519.SignatureSize

// claimFrameSize is the exact length of rec's claim frame, for sizing a
// buffer once.
func claimFrameSize(rec *Record) int {
	return frameHeaderSize + 1 + 16 + 2 + uvarintLen(rec.OpSeq) + claimTailSize
}

// uvarintLen is the length of v's minimal uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// checkClaim refuses a record the claim frame cannot hold as it is: a
// missing token, a key or signature of the wrong size, or a token over
// another digest than the content hash, which does not timestamp the
// content and so is no evidence for the claim.
func checkClaim(rec *Record) error {
	switch {
	case rec.Timestamp == nil:
		return fmt.Errorf("ledger: record %s has no timestamp token", rec.ID)
	case len(rec.PubKey) != ed25519.PublicKeySize:
		return fmt.Errorf("ledger: record %s: public key is %d bytes, want %d", rec.ID, len(rec.PubKey), ed25519.PublicKeySize)
	case len(rec.HashSig) != ed25519.SignatureSize:
		return fmt.Errorf("ledger: record %s: claim signature is %d bytes, want %d", rec.ID, len(rec.HashSig), ed25519.SignatureSize)
	case len(rec.Timestamp.Sig) != ed25519.SignatureSize:
		return fmt.Errorf("ledger: record %s: token signature is %d bytes, want %d", rec.ID, len(rec.Timestamp.Sig), ed25519.SignatureSize)
	case rec.Timestamp.Digest != rec.ContentHash:
		return fmt.Errorf("ledger: record %s: timestamp token covers another digest than its content hash", rec.ID)
	}
	return nil
}

// appendClaimPayload encodes a claim record payload onto dst.
func appendClaimPayload(dst []byte, rec *Record) ([]byte, error) {
	if err := checkClaim(rec); err != nil {
		return nil, err
	}
	dst = append(dst, recClaim)
	b := rec.ID.Bytes()
	dst = append(dst, b[:]...)
	dst = append(dst, byte(rec.State))
	if rec.Custodial {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, rec.OpSeq)
	dst = append(dst, rec.ContentHash[:]...)
	dst = append(dst, rec.PubKey...)
	dst = append(dst, rec.HashSig...)
	dst = binary.LittleEndian.AppendUint64(dst, rec.Timestamp.Serial)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Timestamp.Time.UnixNano()))
	return append(dst, rec.Timestamp.Sig...), nil
}

// appendClaimFrame encodes a full claim frame onto dst: it reserves the
// header, encodes the payload in place behind it, then patches length
// and CRC. The op and permanent-revocation encoders do the same.
func appendClaimFrame(dst []byte, rec *Record) ([]byte, error) {
	hdr := len(dst)
	dst, err := appendClaimPayload(append(dst, frameHeader[:]...), rec)
	if err != nil {
		return nil, err
	}
	return sealFrame(dst, hdr), nil
}

// appendOpFrame encodes an owner-operation frame onto dst.
func appendOpFrame(dst []byte, id ids.PhotoID, op Op, seq uint64) []byte {
	hdr := len(dst)
	b := id.Bytes()
	dst = append(append(append(dst, frameHeader[:]...), recOp), b[:]...)
	dst = binary.AppendUvarint(append(dst, byte(op)), seq)
	return sealFrame(dst, hdr)
}

// appendPermFrame encodes a permanent-revocation frame onto dst.
func appendPermFrame(dst []byte, id ids.PhotoID) []byte {
	hdr := len(dst)
	b := id.Bytes()
	dst = append(append(append(dst, frameHeader[:]...), recPerm), b[:]...)
	return sealFrame(dst, hdr)
}

// claimHead parses a claim payload's state and sequence number in
// place, and the owner's public key, which it returns aliasing payload.
// seqEnd is the offset just past the sequence varint, where the fields
// no owner operation changes begin.
func claimHead(payload []byte) (st State, seq uint64, pub []byte, seqEnd int, err error) {
	if len(payload) < 19 || payload[0] != recClaim {
		return 0, 0, nil, 0, errors.New("ledger: claim record too short")
	}
	seq, n := binary.Uvarint(payload[19:])
	if n <= 0 {
		return 0, 0, nil, 0, errors.New("ledger: bad claim opseq varint")
	}
	seqEnd = 19 + n
	if len(payload) != seqEnd+claimTailSize {
		return 0, 0, nil, 0, errors.New("ledger: claim record truncated")
	}
	at := seqEnd + 32 // the public key, past the content hash
	return State(payload[17]), seq, payload[at : at+ed25519.PublicKeySize : at+ed25519.PublicKeySize], seqEnd, nil
}

// appendOverlayFrame encodes onto dst the claim frame of the sealed
// claim whose payload is sealed with its state and sequence number
// replaced by st and seq: the frame appendClaimFrame writes for the
// decoded record so changed, built without decoding it.
func appendOverlayFrame(dst, sealed []byte, st State, seq uint64) ([]byte, error) {
	_, _, _, seqEnd, err := claimHead(sealed)
	if err != nil {
		return nil, err
	}
	hdr := len(dst)
	dst = append(append(dst, frameHeader[:]...), sealed[:17]...)
	dst = binary.AppendUvarint(append(dst, byte(st), sealed[18]), seq)
	return sealFrame(append(dst, sealed[seqEnd:]...), hdr), nil
}

// frameAt reads the frame starting at buf[off:]. It returns the payload
// (aliasing buf) and the offset of the next frame. errFrameTorn means
// the frame's claimed extent runs past len(buf) — the signature of a
// crash mid-append when off is the last frame; errFrameCorrupt means
// the bytes are complete but fail validation.
func frameAt(buf []byte, off int64) (payload []byte, next int64, err error) {
	if off+frameHeaderSize > int64(len(buf)) {
		return nil, 0, errFrameTorn
	}
	n := binary.LittleEndian.Uint32(buf[off : off+4])
	if n > maxFramePayload {
		// A garbage length cannot be distinguished from corruption by
		// extent alone; classify by whether anything follows the header.
		if off+frameHeaderSize == int64(len(buf)) {
			return nil, 0, errFrameTorn
		}
		return nil, 0, errFrameCorrupt
	}
	end := off + frameHeaderSize + int64(n)
	if end > int64(len(buf)) {
		return nil, 0, errFrameTorn
	}
	want := binary.LittleEndian.Uint32(buf[off+4 : off+8])
	payload = buf[off+frameHeaderSize : end]
	if crc32.Checksum(payload, castagnoli) != want {
		// Complete extent, bad bytes: torn only if nothing follows (a
		// crash can tear the payload after the header was written and
		// the file still end inside this frame's extent... it cannot —
		// but a torn final frame whose garbage length field happens to
		// cover exactly the remaining bytes looks like this).
		if end == int64(len(buf)) {
			return nil, 0, errFrameTorn
		}
		return nil, 0, errFrameCorrupt
	}
	return payload, end, nil
}

// decodeRecord decodes one frame payload.
func decodeRecord(payload []byte) (*binRec, error) {
	if len(payload) < 17 {
		return nil, fmt.Errorf("ledger: record payload too short (%d bytes)", len(payload))
	}
	var idb [16]byte
	copy(idb[:], payload[1:17])
	r := &binRec{kind: payload[0], id: ids.FromBytes(idb)}
	body := payload[17:]
	switch r.kind {
	case recPerm:
		if len(body) != 0 {
			return nil, errors.New("ledger: trailing bytes in perm record")
		}
		return r, nil
	case recOp:
		if len(body) < 2 {
			return nil, errors.New("ledger: op record too short")
		}
		r.op = Op(body[0])
		seq, n := binary.Uvarint(body[1:])
		if n <= 0 || len(body[1:]) != n {
			return nil, errors.New("ledger: bad op sequence varint")
		}
		r.seq = seq
		return r, nil
	case recClaim:
		if len(body) < 2 {
			return nil, errors.New("ledger: claim record too short")
		}
		if body[1] > 1 {
			return nil, fmt.Errorf("ledger: claim record custodial byte %d, want 0 or 1", body[1])
		}
		rec := &Record{ID: r.id, State: State(body[0]), Custodial: body[1] == 1}
		seq, n := binary.Uvarint(body[2:])
		if n <= 0 || n != uvarintLen(seq) {
			return nil, errors.New("ledger: bad claim opseq varint")
		}
		rec.OpSeq = seq
		body = body[2+n:]
		if len(body) != claimTailSize {
			return nil, fmt.Errorf("ledger: claim record holds %d bytes past its sequence number, want %d", len(body), claimTailSize)
		}
		copy(rec.ContentHash[:], body[:32])
		// One copy out of the (possibly memory-mapped) backing buffer
		// holds key, claim signature and token signature, so the record
		// outlives segment retirement.
		keys := make([]byte, 0, ed25519.PublicKeySize+2*ed25519.SignatureSize)
		keys = append(append(keys, body[32:128]...), body[144:]...)
		rec.PubKey = keys[:32:32]
		rec.HashSig = keys[32:96:96]
		rec.Timestamp = &tsa.Token{
			Serial: binary.LittleEndian.Uint64(body[128:]),
			Time:   time.Unix(0, int64(binary.LittleEndian.Uint64(body[136:]))).UTC(),
			Digest: rec.ContentHash,
			Sig:    keys[96:],
		}
		r.rec = rec
		return r, nil
	default:
		return nil, fmt.Errorf("ledger: unknown record kind %q", r.kind)
	}
}
