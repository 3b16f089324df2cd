package wire

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"strings"
	"sync"

	"irs/internal/ids"
	"irs/internal/ledger"
)

// IRSW1 is the binary wire codec for the hot RPCs of both hops: the
// serving path's StatusBatch, ValidateBatch and FilterSync, and
// the write plane's signed owner ops and claims. The Go clients speak
// only IRSW1 on them, through Hop.Exchange. Servers also answer JSON on
// every route, chosen per request by its Content-Type and Accept, for
// browsers and curl.
//
// Every IRSW1 body is exactly one frame, reusing the storage engine's
// binrec conventions (length-prefixed, CRC32-C tagged, varint counts):
//
//	u32 payload length (LE) | u32 CRC32-C of payload (LE) | payload
//
// and the payload is a tagged message:
//
//	status batch req:    'Q' | id batch
//	status batch resp:   'q' | uvarint n | n × tail
//	filter sync resp:    'f' | uvarint latest epoch | update payload
//	validate batch req:  'V' | id batch
//	validate batch resp: 'v' | uvarint n | n × entry
//	op req:              'O' | id[16] | op u8 | sig[64]
//	op resp:             'o'
//	claim req:           'C' | flags u8 | hash[32] | pub[32] | sig[64]
//	                     (flags: bit 0 custodial, bit 1 revoked at
//	                     birth; no other bit may be set)
//	claim resp:          'r' | id[16] | u16 len | timestamp token |
//	                     [tail] (the claim's first proof, when it has one)
//
// with these parts:
//
//	id batch: uvarint n | runs of (ledger u32 BE | uvarint k |
//	          k × rec[12]), in request order: n in 1..MaxStatusBatch,
//	          every k ≥ 1, the k summing to n, and two adjacent runs
//	          never naming the same ledger
//	tail:     state u8 | issued unixnano u64 BE | sig[64] — a proof's
//	          Marshal form without the magic and the id, which is the
//	          one asked about: by position in a batch, the issued id in
//	          a claim answer
//	entry:    bits u8 [| issued unixnano u64 BE | sig[64]] — bits 0–2
//	          state, bits 3–5 source, bit 6 set when the proof's
//	          issued-at and signature follow, bit 7 zero; a proof's
//	          state is the entry's
//
// Every uvarint is minimal, so a message has exactly one encoding:
// decoding and re-encoding any frame a decoder accepts gives its bytes
// back. A kind this revision does not know, such as another revision's
// (PROTOCOL.md), is a 400 at a server and a transport error at a
// client, never a misparse.
//
// The CRC covers the payload only. A frame whose claimed extent runs
// past the body is truncated; a complete frame failing its CRC is
// corrupt — both are transport-class failures (the bytes did not
// survive the network), never silent zero-value responses, so the
// retry layer treats them exactly like a dropped connection under the
// idempotency rules. Error bodies are always the JSON wire.Error.

// Codec names a hot-RPC encoding. The Go clients no longer choose one;
// only bench/ still passes it (ROADMAP 1(a) deletes it). The zero Codec
// is JSON, the encoding servers answer browsers in.
type Codec int

// CodecBinary is IRSW1.
const CodecBinary Codec = 1

// String implements fmt.Stringer.
func (c Codec) String() string {
	if c == CodecBinary {
		return "binary"
	}
	return "json"
}

// Media types.
const (
	// ContentTypeJSON is the JSON encoding's media type.
	ContentTypeJSON = "application/json"
	// ContentTypeBinary is the IRSW1 media type.
	ContentTypeBinary = "application/x-irs-w1"
)

// AcceptsBinary reports whether the request's Accept header names the
// IRSW1 media type.
func AcceptsBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), ContentTypeBinary)
}

// IsBinaryContent reports whether a Content-Type value is IRSW1.
func IsBinaryContent(ct string) bool {
	return strings.HasPrefix(ct, ContentTypeBinary)
}

// IRSW1 message kinds (payload byte 0).
const (
	MsgStatusBatchReq    = byte('Q')
	MsgStatusBatchResp   = byte('q')
	MsgFilterSyncResp    = byte('f')
	MsgValidateBatchReq  = byte('V')
	MsgValidateBatchResp = byte('v')
	MsgOpReq             = byte('O')
	MsgOpResp            = byte('o')
	MsgClaimReq          = byte('C')
	MsgClaimResp         = byte('r')
)

// Frame geometry. RPC frames share the request/response body bound;
// filter sync payloads have their own (a snapshot of a large filter
// dwarfs any RPC).
const (
	frameHeader = 8
	// MaxFramePayload bounds an RPC frame's payload; a hostile length
	// prefix can never drive a larger allocation because decoders slice
	// an already-bounded body.
	MaxFramePayload = maxBody
)

// wireCastagnoli is the CRC32-C table (same polynomial as the storage
// engine's binrec frames).
var wireCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame decode errors. Both classify as transport failures at the
// client (the response demonstrably did not arrive intact), so the
// retry layer applies its usual idempotency rules instead of
// surfacing a silent zero value.
var (
	ErrFrameTruncated = errors.New("wire: truncated IRSW1 frame")
	ErrFrameCorrupt   = errors.New("wire: corrupt IRSW1 frame")
)

// bufPool recycles codec buffers. Steady state the serving path
// encodes and decodes whole batches with zero allocations: buffers
// grow to the largest batch seen and are then reused.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetBuf borrows a codec buffer (length 0). Return it with PutBuf.
func GetBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

// maxRetainBuf caps what PutBuf keeps: RPC bodies are bounded by
// MaxFramePayload anyway, and an occasional filter-sync body should
// not pin megabytes in the pool.
const maxRetainBuf = MaxFramePayload

// PutBuf returns a buffer borrowed with GetBuf.
func PutBuf(b *[]byte) {
	if cap(*b) > maxRetainBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// BeginFrame appends the 8-byte frame header placeholder to dst. The
// frame must start at dst's current end and be finished with
// FinishFrame on the same slice.
func BeginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// FinishFrame fills in the length and CRC of a frame begun at offset
// `start` with BeginFrame, returning b unchanged in backing.
func FinishFrame(b []byte, start int) []byte {
	payload := b[start+frameHeader:]
	binary.LittleEndian.PutUint32(b[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:start+8], crc32.Checksum(payload, wireCastagnoli))
	return b
}

// DecodeFrame validates the single frame occupying body and returns
// its payload (aliasing body). maxPayload bounds the claimed length
// before any use. Trailing bytes after the frame are corruption: an
// IRSW1 body carries exactly one frame.
func DecodeFrame(body []byte, maxPayload int) ([]byte, error) {
	if len(body) < frameHeader {
		return nil, ErrFrameTruncated
	}
	n := binary.LittleEndian.Uint32(body[0:4])
	if n > uint32(maxPayload) {
		return nil, ErrFrameCorrupt
	}
	end := frameHeader + int(n)
	if end > len(body) {
		return nil, ErrFrameTruncated
	}
	if end != len(body) {
		return nil, ErrFrameCorrupt
	}
	payload := body[frameHeader:end]
	if crc32.Checksum(payload, wireCastagnoli) != binary.LittleEndian.Uint32(body[4:8]) {
		return nil, ErrFrameCorrupt
	}
	return payload, nil
}

// DecodeMsg decodes an IRSW1 body into its message kind and inner
// payload (aliasing body).
func DecodeMsg(body []byte, maxPayload int) (kind byte, payload []byte, err error) {
	p, err := DecodeFrame(body, maxPayload)
	if err != nil {
		return 0, nil, err
	}
	if len(p) == 0 {
		return 0, nil, ErrFrameCorrupt
	}
	return p[0], p[1:], nil
}

// uvarint reads a minimally encoded uvarint off b — the form
// binary.AppendUvarint writes, so each value has one encoding.
func uvarint(b []byte) (v uint64, rest []byte, err error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		return 0, nil, ErrFrameCorrupt
	}
	return v, b[n:], nil
}

// recSize is the per-ledger record half of an identifier, what an id
// batch's run carries per id.
const recSize = len(ids.PhotoID{}.Rec)

// appendIDBatch encodes an identifier batch message of the given kind:
// each stretch of ids of one ledger is one run.
func appendIDBatch(dst []byte, kind byte, batch []ids.PhotoID) []byte {
	start := len(dst)
	dst = append(BeginFrame(dst), kind)
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for i := 0; i < len(batch); {
		lid, j := batch[i].Ledger, i+1
		for j < len(batch) && batch[j].Ledger == lid {
			j++
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(lid))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		for ; i < j; i++ {
			dst = append(dst, batch[i].Rec[:]...)
		}
	}
	return FinishFrame(dst, start)
}

// decodeIDBatch decodes an identifier batch payload into dst's array,
// or a new one of the batch's size when dst's is too small. The count
// is checked against MaxStatusBatch and the payload's length before
// the batch is sized, so a hostile header cannot drive allocation or
// iteration; a run that is empty, overshoots the count or repeats the
// ledger of the run before it is refused.
func decodeIDBatch(dst []ids.PhotoID, payload []byte) ([]ids.PhotoID, error) {
	n, rest, err := uvarint(payload)
	if err != nil || n == 0 || n > MaxStatusBatch || uint64(len(rest)) < n*uint64(recSize) {
		return nil, ErrFrameCorrupt
	}
	batch := dst[:0]
	if cap(batch) < int(n) {
		batch = make([]ids.PhotoID, 0, n)
	}
	for len(batch) < int(n) {
		if len(rest) < 4 {
			return nil, ErrFrameCorrupt
		}
		lid := ids.LedgerID(binary.BigEndian.Uint32(rest))
		k, r, err := uvarint(rest[4:])
		if err != nil || k == 0 || k > n-uint64(len(batch)) || uint64(len(r)) < k*uint64(recSize) ||
			len(batch) > 0 && batch[len(batch)-1].Ledger == lid {
			return nil, ErrFrameCorrupt
		}
		for ; k > 0; k-- {
			batch = append(batch, ids.PhotoID{Ledger: lid, Rec: [recSize]byte(r)})
			r = r[recSize:]
		}
		rest = r
	}
	if len(rest) != 0 {
		return nil, ErrFrameCorrupt
	}
	return batch, nil
}

// EncodeStatusBatchReq encodes a StatusBatch request frame onto dst.
func EncodeStatusBatchReq(dst []byte, batch []ids.PhotoID) []byte {
	return appendIDBatch(dst, MsgStatusBatchReq, batch)
}

// EncodeValidateBatchReq encodes a ValidateBatch request frame onto
// dst (the browser→proxy mirror of EncodeStatusBatchReq).
func EncodeValidateBatchReq(dst []byte, batch []ids.PhotoID) []byte {
	return appendIDBatch(dst, MsgValidateBatchReq, batch)
}

// takeField slices a u16-length-prefixed byte field off payload.
func takeField(payload []byte) (field, rest []byte, err error) {
	if len(payload) < 2 {
		return nil, nil, ErrFrameCorrupt
	}
	n := int(binary.LittleEndian.Uint16(payload[:2]))
	payload = payload[2:]
	if len(payload) < n {
		return nil, nil, ErrFrameCorrupt
	}
	return payload[:n:n], payload[n:], nil
}

// EncodeStatusBatchResp encodes a StatusBatch response frame onto dst:
// each proof's tail, in request order. This is the server's hot encode
// path: with a pooled dst it allocates nothing.
func EncodeStatusBatchResp(dst []byte, proofs []*ledger.StatusProof) []byte {
	start := len(dst)
	dst = append(BeginFrame(dst), MsgStatusBatchResp)
	dst = binary.AppendUvarint(dst, uint64(len(proofs)))
	for _, p := range proofs {
		dst = p.AppendTail(dst)
	}
	return FinishFrame(dst, start)
}

// DecodeStatusBatchResp walks a StatusBatch response payload, handing
// each proof's ledger.ProofTailSize-byte tail (aliasing payload, valid
// only during the call) to fn in order; the tail attests the id asked
// about at its position. This is the client's hot decode path: it
// allocates nothing itself.
func DecodeStatusBatchResp(payload []byte, fn func(i int, tail []byte) error) (int, error) {
	const size = ledger.ProofTailSize
	n, rest, err := uvarint(payload)
	if err != nil || n > MaxStatusBatch || uint64(len(rest)) != n*size {
		return 0, ErrFrameCorrupt
	}
	for i := 0; i < int(n); i++ {
		if err := fn(i, rest[i*size:(i+1)*size:(i+1)*size]); err != nil {
			return 0, err
		}
	}
	return int(n), nil
}

// EncodeFilterSyncResp encodes a filter sync response frame onto dst:
// the latest epoch in-band (no header round trip) and the
// bloom.ApplyUpdate payload, CRC-protected end to end.
func EncodeFilterSyncResp(dst []byte, latest uint64, payload []byte) []byte {
	start := len(dst)
	dst = BeginFrame(dst)
	dst = append(dst, MsgFilterSyncResp)
	dst = binary.AppendUvarint(dst, latest)
	dst = append(dst, payload...)
	return FinishFrame(dst, start)
}

// DecodeFilterSyncResp splits a filter sync response payload into the
// latest epoch and the update payload (aliasing payload).
func DecodeFilterSyncResp(payload []byte) (latest uint64, update []byte, err error) {
	return uvarint(payload)
}

// Validate entry bits: the state, the source, and whether the proof's
// issued-at and signature follow. Bit 7 is reserved and must be zero.
const (
	entryState  = 0x07
	entrySource = 0x07 << 3
	entryProof  = 1 << 6
	// signedSize is what follows an entry with a proof: the proof's
	// tail without its state byte, which the entry carries.
	signedSize = ledger.ProofTailSize - 1
)

// ValidateWire is one decoded validate entry: the proxy's answer in
// IRSW1 form. State is the ledger.State byte and Source the proxy
// source byte, each as sent (0–7; which are defined is the reader's
// check); Signed is the proof's issued-at and signature, aliasing the
// decode buffer, or nil when the answer carries no proof.
type ValidateWire struct {
	State  byte
	Source byte
	Signed []byte
}

// AppendProof appends the Marshal form of v's proof, as the proof of
// id (the identifier asked about), to dst; v must carry a proof.
func (v ValidateWire) AppendProof(dst []byte, id ids.PhotoID) []byte {
	return append(append(ledger.AppendProofHead(dst, id), v.State), v.Signed...)
}

// EncodeValidateBatchResp encodes a ValidateBatch response frame onto
// dst; entry is called once per index to supply each answer. An answer
// with a proof carries the proof's state, whatever state entry gives.
func EncodeValidateBatchResp(dst []byte, n int, entry func(i int) (state, source byte, p *ledger.StatusProof)) []byte {
	start := len(dst)
	dst = append(BeginFrame(dst), MsgValidateBatchResp)
	dst = binary.AppendUvarint(dst, uint64(n))
	for i := 0; i < n; i++ {
		state, source, p := entry(i)
		if p == nil {
			dst = append(dst, state|source<<3)
			continue
		}
		// The tail's leading state byte becomes the entry's bits.
		at := len(dst)
		dst = p.AppendTail(dst)
		dst[at] = byte(p.State) | source<<3 | entryProof
	}
	return FinishFrame(dst, start)
}

// DecodeValidateBatchResp walks a ValidateBatch response payload,
// handing each entry (Signed aliasing payload) to fn in order.
func DecodeValidateBatchResp(payload []byte, fn func(i int, v ValidateWire) error) (int, error) {
	n, rest, err := uvarint(payload)
	if err != nil || n > MaxStatusBatch || uint64(len(rest)) < n {
		return 0, ErrFrameCorrupt
	}
	for i := 0; i < int(n); i++ {
		if len(rest) == 0 || rest[0]&^(entryState|entrySource|entryProof) != 0 {
			return 0, ErrFrameCorrupt
		}
		b := rest[0]
		v := ValidateWire{State: b & entryState, Source: b & entrySource >> 3}
		rest = rest[1:]
		if b&entryProof != 0 {
			if len(rest) < signedSize {
				return 0, ErrFrameCorrupt
			}
			v.Signed, rest = rest[:signedSize:signedSize], rest[signedSize:]
		}
		if err := fn(i, v); err != nil {
			return 0, err
		}
	}
	if len(rest) != 0 {
		return 0, ErrFrameCorrupt
	}
	return int(n), nil
}

// Claim request flag bits.
const (
	claimCustodial      = 1 << 0
	claimRevokedAtBirth = 1 << 1
)

// Sizes of the write plane's fixed fields: an Ed25519 signature, a
// SHA-256 content hash and an Ed25519 public key.
const (
	sigSize  = ed25519.SignatureSize
	hashSize = 32
	pubSize  = ed25519.PublicKeySize
)

// EncodeOpReq encodes a signed owner op request frame onto dst. sig
// must be 64 bytes (Client.Apply checks). The frame carries no
// sequence number: the ledger verifies sig over its record's next one.
func EncodeOpReq(dst []byte, id ids.PhotoID, op ledger.Op, sig []byte) []byte {
	start := len(dst)
	dst = BeginFrame(dst)
	b := id.Bytes()
	dst = append(append(dst, MsgOpReq), b[:]...)
	dst = append(append(dst, byte(op)), sig...)
	return FinishFrame(dst, start)
}

// DecodeOpReq splits an op request payload into its fields; sig
// aliases payload. The op byte is returned as sent: which ops exist is
// the server's check, shared with the JSON form.
func DecodeOpReq(payload []byte) (id ids.PhotoID, op ledger.Op, sig []byte, err error) {
	const size = 16 + 1 + sigSize // id, op, sig
	if len(payload) != size {
		return id, 0, nil, ErrFrameCorrupt
	}
	return ids.FromBytes([16]byte(payload[:16])), ledger.Op(payload[16]), payload[17:size:size], nil
}

// EncodeOpResp encodes the empty op answer frame onto dst.
func EncodeOpResp(dst []byte) []byte {
	start := len(dst)
	dst = append(BeginFrame(dst), MsgOpResp)
	return FinishFrame(dst, start)
}

// DecodeOpResp checks an op answer payload, which is empty.
func DecodeOpResp(payload []byte) error {
	if len(payload) != 0 {
		return ErrFrameCorrupt
	}
	return nil
}

// checkClaimReq refuses a claim request whose fields the IRSW1 frame
// cannot carry: a content hash, public key and signature of other than
// 32, 32 and 64 bytes would misalign the fixed-size fields.
func checkClaimReq(req *ClaimRequest) error {
	if len(req.ContentHash) != hashSize || len(req.PubKey) != pubSize || len(req.HashSig) != sigSize {
		return fmt.Errorf("wire: claim needs a %d-byte hash, %d-byte key and %d-byte signature, have %d, %d and %d",
			hashSize, pubSize, sigSize, len(req.ContentHash), len(req.PubKey), len(req.HashSig))
	}
	return nil
}

// EncodeClaimReq encodes a claim request frame onto dst. The request
// must pass checkClaimReq.
func EncodeClaimReq(dst []byte, req *ClaimRequest) []byte {
	start := len(dst)
	dst = BeginFrame(dst)
	var flags byte
	if req.Custodial {
		flags |= claimCustodial
	}
	if req.RevokedAtBirth {
		flags |= claimRevokedAtBirth
	}
	dst = append(dst, MsgClaimReq, flags)
	dst = append(append(append(dst, req.ContentHash...), req.PubKey...), req.HashSig...)
	return FinishFrame(dst, start)
}

// DecodeClaimReq decodes a claim request payload. The byte fields of
// the request alias payload.
func DecodeClaimReq(payload []byte) (ClaimRequest, error) {
	const size = 1 + hashSize + pubSize + sigSize
	if len(payload) != size || payload[0]&^(claimCustodial|claimRevokedAtBirth) != 0 {
		return ClaimRequest{}, ErrFrameCorrupt
	}
	const pub = 1 + hashSize
	const sig = pub + pubSize
	return ClaimRequest{
		ContentHash:    payload[1:pub:pub],
		PubKey:         payload[pub:sig:sig],
		HashSig:        payload[sig:size:size],
		Custodial:      payload[0]&claimCustodial != 0,
		RevokedAtBirth: payload[0]&claimRevokedAtBirth != 0,
	}, nil
}

// EncodeClaimResp encodes a claim answer frame onto dst: the issued
// identifier, the marshaled timestamp token and, when the receipt has
// one, the tail of the claim's first proof.
func EncodeClaimResp(dst []byte, rc ledger.Receipt) []byte {
	start := len(dst)
	dst = BeginFrame(dst)
	b := rc.ID.Bytes()
	dst = append(append(dst, MsgClaimResp), b[:]...)
	at := len(dst)
	dst = rc.Timestamp.AppendMarshal(append(dst, 0, 0))
	binary.LittleEndian.PutUint16(dst[at:], uint16(len(dst)-at-2))
	if rc.Proof != nil {
		dst = rc.Proof.AppendTail(dst)
	}
	return FinishFrame(dst, start)
}

// DecodeClaimResp splits a claim answer payload into the identifier,
// the timestamp token bytes and what follows the token, the proof's
// tail (nil when nothing does); both alias payload. The tail's size is
// left to the receipt's builder: a tail that is no proof costs the
// answer its proof, never the receipt of a recorded claim.
func DecodeClaimResp(payload []byte) (id ids.PhotoID, token, tail []byte, err error) {
	if len(payload) < 16 {
		return id, nil, nil, ErrFrameCorrupt
	}
	token, tail, err = takeField(payload[16:])
	if err != nil {
		return id, nil, nil, err
	}
	if len(tail) == 0 {
		tail = nil
	}
	return ids.FromBytes([16]byte(payload[:16])), token, tail, nil
}
