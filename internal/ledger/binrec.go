package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

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
//	       hash[32] | pub u8-len+bytes | sig u8-len+bytes |
//	       token u16-len+bytes
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
	// maxFramePayload bounds a single record. Claim records are ~300
	// bytes; 1 MiB leaves generous headroom while keeping hostile
	// length prefixes harmless.
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

// claimFrameMax bounds the length of rec's claim frame from above (the
// opseq varint is counted at its longest), for sizing a buffer once.
func claimFrameMax(rec *Record) int {
	return frameHeaderSize + 1 + 16 + 2 + binary.MaxVarintLen64 + 32 +
		1 + len(rec.PubKey) + 1 + len(rec.HashSig) + 2 + 48 + len(rec.Timestamp.Sig)
}

// appendClaimPayload encodes a claim record payload onto dst.
func appendClaimPayload(dst []byte, rec *Record) ([]byte, error) {
	if len(rec.PubKey) > 0xff || len(rec.HashSig) > 0xff {
		return nil, fmt.Errorf("ledger: oversized key or signature (%d/%d bytes)", len(rec.PubKey), len(rec.HashSig))
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
	dst = append(dst, byte(len(rec.PubKey)))
	dst = append(dst, rec.PubKey...)
	dst = append(dst, byte(len(rec.HashSig)))
	dst = append(dst, rec.HashSig...)
	// The token's length prefix is patched in once the token is in place.
	lenAt := len(dst)
	dst = rec.Timestamp.AppendMarshal(append(dst, 0, 0))
	n := len(dst) - lenAt - 2
	if n > 0xffff {
		return nil, fmt.Errorf("ledger: oversized timestamp token (%d bytes)", n)
	}
	binary.LittleEndian.PutUint16(dst[lenAt:], uint16(n))
	return dst, nil
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
	at := seqEnd + 32 // the public key's length byte, past the content hash
	if len(payload) <= at || len(payload) <= at+int(payload[at]) {
		return 0, 0, nil, 0, errors.New("ledger: claim record truncated")
	}
	end := at + 1 + int(payload[at])
	return State(payload[17]), seq, payload[at+1 : end : end], seqEnd, nil
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
		rec := &Record{ID: r.id, State: State(body[0]), Custodial: body[1] != 0}
		body = body[2:]
		seq, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, errors.New("ledger: bad claim opseq varint")
		}
		rec.OpSeq = seq
		body = body[n:]
		if len(body) < 32 {
			return nil, errors.New("ledger: claim record missing content hash")
		}
		copy(rec.ContentHash[:], body[:32])
		body = body[32:]
		take := func(wide bool) ([]byte, error) {
			if wide {
				if len(body) < 2 {
					return nil, errors.New("ledger: claim record truncated")
				}
				n := int(binary.LittleEndian.Uint16(body[:2]))
				body = body[2:]
				if len(body) < n {
					return nil, errors.New("ledger: claim record truncated")
				}
				out := body[:n:n]
				body = body[n:]
				return out, nil
			}
			if len(body) < 1 {
				return nil, errors.New("ledger: claim record truncated")
			}
			n := int(body[0])
			body = body[1:]
			if len(body) < n {
				return nil, errors.New("ledger: claim record truncated")
			}
			out := body[:n:n]
			body = body[n:]
			return out, nil
		}
		pub, err := take(false)
		if err != nil {
			return nil, err
		}
		sig, err := take(false)
		if err != nil {
			return nil, err
		}
		tokb, err := take(true)
		if err != nil {
			return nil, err
		}
		if len(body) != 0 {
			return nil, errors.New("ledger: trailing bytes in claim record")
		}
		tok, err := tsa.Unmarshal(tokb)
		if err != nil {
			return nil, fmt.Errorf("ledger: claim record token: %w", err)
		}
		// Copy out of the (possibly memory-mapped) backing buffer so the
		// record outlives segment retirement.
		rec.PubKey = append([]byte(nil), pub...)
		rec.HashSig = append([]byte(nil), sig...)
		rec.Timestamp = tok
		r.rec = rec
		return r, nil
	default:
		return nil, fmt.Errorf("ledger: unknown record kind %q", r.kind)
	}
}
