package wire

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/tsa"
)

// FuzzWireFrameDecode drives the whole IRSW1 decode surface with
// hostile bytes: the shared id-batch reader both batch routes use, the
// frame layer, then every message decoder that a client or server
// would dispatch to by kind, the write plane's op and claim frames
// included. Nothing may panic, and no decoder may
// iterate or allocate past the declared bounds — the count checks in
// decodeIDBatch/DecodeStatusBatchResp are exactly what this target
// guards.
func FuzzWireFrameDecode(f *testing.F) {
	id, _ := ids.New(1)
	proof := &ledger.StatusProof{ID: id, State: ledger.StateActive}

	// Seed with one well-formed frame per message kind plus classic
	// mutations: truncations, a CRC flip, trailing junk, huge counts.
	seeds := [][]byte{
		{},
		{0, 0, 0, 0},
		EncodeStatusBatchReq(nil, []ids.PhotoID{id, id}),
		EncodeValidateBatchReq(nil, []ids.PhotoID{id}),
		// A frame of the retired single-status kind 's', which no
		// decoder reads any more.
		FinishFrame(appendProof(append(BeginFrame(nil), 's'), proof), 0),
		EncodeStatusBatchResp(nil, []*ledger.StatusProof{proof}),
		EncodeFilterSyncResp(nil, 99, []byte("delta")),
		EncodeValidateBatchReq(nil, make([]ids.PhotoID, MaxStatusBatch+1)),
		EncodeValidateBatchResp(nil, 1, func(int) (byte, byte, bool, *ledger.StatusProof) {
			return 1, 2, true, proof
		}),
		EncodeOpReq(nil, id, ledger.OpRevoke, make([]byte, 64)),
		EncodeOpResp(nil),
		EncodeClaimReq(nil, &ClaimRequest{ContentHash: make([]byte, 32), PubKey: make([]byte, 32),
			HashSig: make([]byte, 64), Custodial: true}),
		EncodeClaimResp(nil, ledger.Receipt{ID: id, Timestamp: &tsa.Token{Sig: make([]byte, 64)}, Proof: proof}),
		EncodeClaimResp(nil, ledger.Receipt{ID: id, Timestamp: &tsa.Token{Sig: make([]byte, 64)}}),
	}
	whole := EncodeStatusBatchResp(nil, []*ledger.StatusProof{proof})
	seeds = append(seeds, whole[:len(whole)-2])
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 1
	seeds = append(seeds,
		flipped,
		append(append([]byte(nil), whole...), 0xAA),
		// Frame claiming a giant payload.
		[]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 'B'},
	)
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []byte{MsgStatusBatchReq, MsgValidateBatchReq} {
			r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data))
			r.Header.Set("Content-Type", ContentTypeBinary)
			if batch, err := ReadIDBatch(r, kind); err == nil && (len(batch) == 0 || len(batch) > MaxStatusBatch) {
				t.Fatalf("kind %c: reader accepted a batch of %d", kind, len(batch))
			}
		}
		_, payload, err := DecodeMsg(data, MaxFramePayload)
		if err != nil {
			return
		}
		// Every decoder must tolerate every kind's payload: a flipped
		// kind byte re-routes the same bytes through a different parser.
		decoders := []func([]byte){
			func(p []byte) {
				n, _ := decodeIDBatch(p, func(int, ids.PhotoID) error { return nil })
				if n > MaxStatusBatch {
					t.Fatalf("id batch over limit: %d", n)
				}
			},
			func(p []byte) {
				n, _ := DecodeStatusBatchResp(p, func(i int, proof []byte) error {
					if len(proof) > len(p) {
						t.Fatal("proof slice exceeds payload")
					}
					return nil
				})
				if n > MaxStatusBatch {
					t.Fatalf("proof batch over limit: %d", n)
				}
			},
			func(p []byte) { _, _, _ = DecodeFilterSyncResp(p) },
			func(p []byte) {
				_, _ = DecodeValidateBatchResp(p, func(int, ValidateWire) error { return nil })
			},
			func(p []byte) {
				if _, _, sig, err := DecodeOpReq(p); err == nil && len(sig) != 64 {
					t.Fatalf("op request decoded with a %d-byte signature", len(sig))
				}
			},
			func(p []byte) { _ = DecodeOpResp(p) },
			func(p []byte) {
				if req, err := DecodeClaimReq(p); err == nil && checkClaimReq(&req) != nil {
					t.Fatalf("claim request decoded with fields of %d, %d and %d bytes",
						len(req.ContentHash), len(req.PubKey), len(req.HashSig))
				}
			},
			func(p []byte) {
				_, token, proof, err := DecodeClaimResp(p)
				if err == nil && len(token)+len(proof) > len(p) {
					t.Fatal("claim answer fields exceed payload")
				}
			},
		}
		for _, dec := range decoders {
			dec(payload)
		}
	})
}
