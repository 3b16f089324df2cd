package wire

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/tsa"
)

// rawProof is the proof a tail (state byte, then issued-at and
// signature) or a validate entry (its state bits, then signed) stands
// for, taken as sent: an undefined state stays as it is, so every tail
// a frame decoder accepts can be re-encoded.
func rawProof(state byte, signed []byte) *ledger.StatusProof {
	return &ledger.StatusProof{State: ledger.State(state),
		IssuedAt: time.Unix(0, int64(binary.BigEndian.Uint64(signed))),
		Sig:      [64]byte(signed[8:])}
}

// FuzzWireFrameDecode drives the whole IRSW1 decode surface with
// hostile bytes: the shared id-batch reader both batch routes use, the
// frame layer, then every message decoder that a client or server
// would dispatch to by kind, the write plane's op and claim frames
// included. Nothing may panic, no decoder may iterate or allocate past
// the declared bounds, and each frame has one encoding: a payload any
// decoder accepts re-encodes, through the encoder of its message, to
// exactly the bytes it was decoded from.
func FuzzWireFrameDecode(f *testing.F) {
	id, _ := ids.New(1)
	id2, _ := ids.New(2)
	proof := &ledger.StatusProof{ID: id, State: ledger.StateActive}
	tok := &tsa.Token{Sig: make([]byte, 64)}

	// Seed with one well-formed frame per message kind plus classic
	// mutations: truncations, a CRC flip, trailing junk, huge counts.
	seeds := [][]byte{
		{},
		{0, 0, 0, 0},
		EncodeStatusBatchReq(nil, []ids.PhotoID{id, id}),
		EncodeStatusBatchReq(nil, []ids.PhotoID{id, id2, id2, id}),
		EncodeValidateBatchReq(nil, []ids.PhotoID{id}),
		EncodeStatusBatchResp(nil, []*ledger.StatusProof{proof}),
		EncodeFilterSyncResp(nil, 99, []byte("delta")),
		// A batch declaring one id more than MaxStatusBatch, which the
		// count alone refuses. It carries no ids: mutations of a 3 KB
		// batch kept the fuzzer minimizing for its whole time budget.
		FinishFrame(binary.AppendUvarint(append(BeginFrame(nil), MsgValidateBatchReq), MaxStatusBatch+1), 0),
		EncodeValidateBatchResp(nil, 4, func(i int) (byte, byte, *ledger.StatusProof) {
			if i == 0 {
				return 1, 0, nil
			}
			return 1, byte(i), proof
		}),
		EncodeOpReq(nil, id, ledger.OpRevoke, make([]byte, 64)),
		EncodeOpResp(nil),
		EncodeClaimReq(nil, &ClaimRequest{ContentHash: make([]byte, 32), PubKey: make([]byte, 32),
			HashSig: make([]byte, 64), Custodial: true}),
		EncodeClaimResp(nil, ledger.Receipt{ID: id, Timestamp: tok, Proof: proof}),
		EncodeClaimResp(nil, ledger.Receipt{ID: id, Timestamp: tok}),
		// A frame of the retired single-status kind 's'.
		FinishFrame(proof.AppendMarshal(append(BeginFrame(nil), 's')), 0),
	}
	// The serving kinds before compact frames, which no decoder reads.
	for _, k := range []string{"B", "W", "b", "w", "c"} {
		seeds = append(seeds, RetiredFrames(id, proof, tok)[k])
	}
	whole := EncodeStatusBatchResp(nil, []*ledger.StatusProof{proof})
	seeds = append(seeds, whole[:len(whole)-2])
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 1
	seeds = append(seeds,
		flipped,
		append(append([]byte(nil), whole...), 0xAA),
		// Frame claiming a giant payload.
		[]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 'Q'},
	)
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []byte{MsgStatusBatchReq, MsgValidateBatchReq} {
			r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data))
			r.Header.Set("Content-Type", ContentTypeBinary)
			batch, err := ReadIDBatch(r, kind, nil)
			if err != nil {
				continue
			}
			if len(batch) == 0 || len(batch) > MaxStatusBatch {
				t.Fatalf("kind %c: reader accepted a batch of %d", kind, len(batch))
			}
			if !bytes.Equal(appendIDBatch(nil, kind, batch), data) {
				t.Fatalf("kind %c: id batch %x re-encodes differently", kind, data)
			}
		}
		_, payload, err := DecodeMsg(data, MaxFramePayload)
		if err != nil {
			return
		}
		// same demands that an encoder's frame carry exactly payload.
		same := func(what string, frame []byte) {
			if _, p, err := DecodeMsg(frame, MaxFramePayload); err != nil || !bytes.Equal(p, payload) {
				t.Fatalf("%s payload %x re-encodes as %x", what, payload, p)
			}
		}
		// Every decoder must tolerate every kind's payload: a flipped
		// kind byte re-routes the same bytes through a different parser.
		decoders := []func([]byte){
			func(p []byte) {
				if batch, err := decodeIDBatch(nil, p); err == nil {
					if len(batch) > MaxStatusBatch {
						t.Fatalf("id batch over limit: %d", len(batch))
					}
					same("id batch", appendIDBatch(nil, 0, batch))
				}
			},
			func(p []byte) {
				var proofs []*ledger.StatusProof
				n, err := DecodeStatusBatchResp(p, func(i int, tail []byte) error {
					if len(tail) != ledger.ProofTailSize {
						t.Fatalf("tail of %d bytes", len(tail))
					}
					proofs = append(proofs, rawProof(tail[0], tail[1:]))
					return nil
				})
				if n > MaxStatusBatch {
					t.Fatalf("proof batch over limit: %d", n)
				}
				if err == nil {
					same("status batch answer", EncodeStatusBatchResp(nil, proofs))
				}
			},
			func(p []byte) {
				if latest, upd, err := DecodeFilterSyncResp(p); err == nil {
					same("filter sync answer", EncodeFilterSyncResp(nil, latest, upd))
				}
			},
			func(p []byte) {
				var entries []ValidateWire
				if _, err := DecodeValidateBatchResp(p, func(_ int, v ValidateWire) error {
					entries = append(entries, v)
					return nil
				}); err == nil {
					same("validate answer", EncodeValidateBatchResp(nil, len(entries), func(i int) (byte, byte, *ledger.StatusProof) {
						v := entries[i]
						if v.Signed == nil {
							return v.State, v.Source, nil
						}
						return v.State, v.Source, rawProof(v.State, v.Signed)
					}))
				}
			},
			func(p []byte) {
				if id, op, sig, err := DecodeOpReq(p); err == nil {
					if len(sig) != 64 {
						t.Fatalf("op request decoded with a %d-byte signature", len(sig))
					}
					same("op request", EncodeOpReq(nil, id, op, sig))
				}
			},
			func(p []byte) {
				if DecodeOpResp(p) == nil {
					same("op answer", EncodeOpResp(nil))
				}
			},
			func(p []byte) {
				if req, err := DecodeClaimReq(p); err == nil {
					if checkClaimReq(&req) != nil {
						t.Fatalf("claim request decoded with fields of %d, %d and %d bytes",
							len(req.ContentHash), len(req.PubKey), len(req.HashSig))
					}
					same("claim request", EncodeClaimReq(nil, &req))
				}
			},
			func(p []byte) {
				if id, token, tail, err := DecodeClaimResp(p); err == nil {
					same("claim answer", claimFrame(id, token, tail))
				}
			},
		}
		for _, dec := range decoders {
			dec(payload)
		}
	})
}
