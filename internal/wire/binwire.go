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
//	status batch req:    'B' | uvarint n | n × id[16]
//	status batch resp:   'b' | uvarint n | n × (u16 len | proof)
//	filter sync resp:    'f' | uvarint latest epoch | update payload
//	validate batch req:  'W' | uvarint n | n × id[16]
//	validate batch resp: 'w' | uvarint n | n × entry
//	entry:               state u8 | source u8 | displayable u8 |
//	                     u16 len | proof
//	op req:              'O' | id[16] | op u8 | sig[64]
//	op resp:             'o'
//	claim req:           'C' | flags u8 | hash[32] | pub[32] | sig[64]
//	                     (flags: bit 0 custodial, bit 1 revoked at
//	                     birth; no other bit may be set)
//	claim resp:          'c' | id[16] | u16 len | timestamp token |
//	                     u16 len | proof (length 0: no proof)
//
// The CRC covers the payload only. A frame whose claimed extent runs
// past the body is truncated; a complete frame failing its CRC is
// corrupt — both are transport-class failures (the bytes did not
// survive the network), never silent zero-value responses, so the
// retry layer treats them exactly like a dropped connection under the
// idempotency rules. Error bodies are always the JSON wire.Error.

// Codec names a hot-RPC encoding. The Go clients no longer choose one;
// irs-bench's topology simulation serializes the server shapes under
// each.
type Codec int

const (
	// CodecJSON is the JSON encoding servers answer for browsers.
	CodecJSON Codec = iota
	// CodecBinary is IRSW1.
	CodecBinary
)

// String implements fmt.Stringer.
func (c Codec) String() string {
	if c == CodecBinary {
		return "binary"
	}
	return "json"
}

// ParseCodec maps irs-bench's -wire flag values onto a Codec.
func ParseCodec(s string) (Codec, error) {
	switch strings.TrimSpace(s) {
	case "json":
		return CodecJSON, nil
	case "binary":
		return CodecBinary, nil
	default:
		return CodecJSON, fmt.Errorf("wire: bad codec %q (json|binary)", s)
	}
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
	MsgStatusBatchReq    = byte('B')
	MsgStatusBatchResp   = byte('b')
	MsgFilterSyncResp    = byte('f')
	MsgValidateBatchReq  = byte('W')
	MsgValidateBatchResp = byte('w')
	MsgOpReq             = byte('O')
	MsgOpResp            = byte('o')
	MsgClaimReq          = byte('C')
	MsgClaimResp         = byte('c')
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

// appendIDBatch encodes an identifier batch message of the given kind.
func appendIDBatch(dst []byte, kind byte, batch []ids.PhotoID) []byte {
	start := len(dst)
	dst = BeginFrame(dst)
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for _, id := range batch {
		b := id.Bytes()
		dst = append(dst, b[:]...)
	}
	return FinishFrame(dst, start)
}

// decodeIDBatch walks an identifier batch payload, handing each id to
// fn. The count is validated against MaxStatusBatch before any work,
// so a hostile header cannot drive allocation or iteration.
func decodeIDBatch(payload []byte, fn func(i int, id ids.PhotoID) error) (int, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 || n == 0 || n > MaxStatusBatch {
		return 0, ErrFrameCorrupt
	}
	rest := payload[used:]
	if len(rest) != int(n)*16 {
		return 0, ErrFrameCorrupt
	}
	var idb [16]byte
	for i := 0; i < int(n); i++ {
		copy(idb[:], rest[i*16:])
		if err := fn(i, ids.FromBytes(idb)); err != nil {
			return 0, err
		}
	}
	return int(n), nil
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

// appendProof appends a u16-length-prefixed proof encoding.
func appendProof(dst []byte, p *ledger.StatusProof) []byte {
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(ledger.MarshaledProofSize))
	dst = append(dst, l[:]...)
	return p.AppendMarshal(dst)
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

// EncodeStatusBatchResp encodes a StatusBatch response frame onto dst.
// This is the server's hot encode path: with a pooled dst it allocates
// nothing.
func EncodeStatusBatchResp(dst []byte, proofs []*ledger.StatusProof) []byte {
	start := len(dst)
	dst = BeginFrame(dst)
	dst = append(dst, MsgStatusBatchResp)
	dst = binary.AppendUvarint(dst, uint64(len(proofs)))
	for _, p := range proofs {
		dst = appendProof(dst, p)
	}
	return FinishFrame(dst, start)
}

// DecodeStatusBatchResp walks a StatusBatch response payload, handing
// each proof's bytes (aliasing payload, valid only during the call) to
// fn in order. This is the client's hot decode path: it allocates
// nothing itself.
func DecodeStatusBatchResp(payload []byte, fn func(i int, proof []byte) error) (int, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 || n > MaxStatusBatch {
		return 0, ErrFrameCorrupt
	}
	rest := payload[used:]
	for i := 0; i < int(n); i++ {
		proof, r, err := takeField(rest)
		if err != nil {
			return 0, err
		}
		rest = r
		if err := fn(i, proof); err != nil {
			return 0, err
		}
	}
	if len(rest) != 0 {
		return 0, ErrFrameCorrupt
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
	latest, used := binary.Uvarint(payload)
	if used <= 0 {
		return 0, nil, ErrFrameCorrupt
	}
	return latest, payload[used:], nil
}

// ValidateWire is one decoded validate entry: the proxy's answer in
// IRSW1 form. State is the ledger.State byte; Source the proxy source
// byte; Proof aliases the decode buffer (copy to retain).
type ValidateWire struct {
	State       byte
	Source      byte
	Displayable bool
	Proof       []byte
}

// appendValidateEntry encodes one validate entry.
func appendValidateEntry(dst []byte, state, source byte, displayable bool, p *ledger.StatusProof) []byte {
	dst = append(dst, state, source)
	if displayable {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	if p == nil {
		return append(dst, 0, 0)
	}
	return appendProof(dst, p)
}

// takeValidateEntry decodes one validate entry off payload.
func takeValidateEntry(payload []byte) (v ValidateWire, rest []byte, err error) {
	if len(payload) < 3 {
		return v, nil, ErrFrameCorrupt
	}
	v.State, v.Source, v.Displayable = payload[0], payload[1], payload[2] != 0
	proof, rest, err := takeField(payload[3:])
	if err != nil {
		return v, nil, err
	}
	if len(proof) > 0 {
		v.Proof = proof
	}
	return v, rest, nil
}

// EncodeValidateBatchResp encodes a ValidateBatch response frame onto
// dst; entry is called once per index to supply each answer.
func EncodeValidateBatchResp(dst []byte, n int, entry func(i int) (state, source byte, displayable bool, p *ledger.StatusProof)) []byte {
	start := len(dst)
	dst = BeginFrame(dst)
	dst = append(dst, MsgValidateBatchResp)
	dst = binary.AppendUvarint(dst, uint64(n))
	for i := 0; i < n; i++ {
		state, source, displayable, p := entry(i)
		dst = appendValidateEntry(dst, state, source, displayable, p)
	}
	return FinishFrame(dst, start)
}

// DecodeValidateBatchResp walks a ValidateBatch response payload,
// handing each entry (proof aliasing payload) to fn in order.
func DecodeValidateBatchResp(payload []byte, fn func(i int, v ValidateWire) error) (int, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 || n > MaxStatusBatch {
		return 0, ErrFrameCorrupt
	}
	rest := payload[used:]
	for i := 0; i < int(n); i++ {
		v, r, err := takeValidateEntry(rest)
		if err != nil {
			return 0, err
		}
		rest = r
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
// one, the claim's first proof.
func EncodeClaimResp(dst []byte, rc ledger.Receipt) []byte {
	start := len(dst)
	dst = BeginFrame(dst)
	b := rc.ID.Bytes()
	dst = append(append(dst, MsgClaimResp), b[:]...)
	at := len(dst)
	dst = rc.Timestamp.AppendMarshal(append(dst, 0, 0))
	binary.LittleEndian.PutUint16(dst[at:], uint16(len(dst)-at-2))
	if rc.Proof == nil {
		dst = append(dst, 0, 0)
	} else {
		dst = appendProof(dst, rc.Proof)
	}
	return FinishFrame(dst, start)
}

// DecodeClaimResp splits a claim answer payload into the identifier,
// the timestamp token bytes and the proof bytes (nil when the answer
// carries none); both alias payload.
func DecodeClaimResp(payload []byte) (id ids.PhotoID, token, proof []byte, err error) {
	if len(payload) < 16 {
		return id, nil, nil, ErrFrameCorrupt
	}
	token, rest, err := takeField(payload[16:])
	if err != nil {
		return id, nil, nil, err
	}
	proof, rest, err = takeField(rest)
	if err != nil {
		return id, nil, nil, err
	}
	if len(rest) != 0 {
		return id, nil, nil, ErrFrameCorrupt
	}
	if len(proof) == 0 {
		proof = nil
	}
	return ids.FromBytes([16]byte(payload[:16])), token, proof, nil
}
