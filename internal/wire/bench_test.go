package wire

import (
	"encoding/json"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
)

// benchProofs builds a full batch of signed-shape proofs (the
// signature bytes are arbitrary; codecs never look inside them).
func benchProofs(b *testing.B, n int) []*ledger.StatusProof {
	b.Helper()
	proofs := make([]*ledger.StatusProof, n)
	for i := range proofs {
		id, err := ids.New(3)
		if err != nil {
			b.Fatal(err)
		}
		proofs[i] = &ledger.StatusProof{
			ID:       id,
			State:    ledger.StateActive,
			IssuedAt: time.Unix(1700000000, 0).UTC(),
		}
	}
	return proofs
}

// BenchmarkStatusEncodeJSON is the server's per-batch encode cost on
// the compatibility protocol: marshal every proof, then the document.
func BenchmarkStatusEncodeJSON(b *testing.B) {
	proofs := benchProofs(b, MaxStatusBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := &StatusBatchResponse{Proofs: make([][]byte, len(proofs))}
		for j, p := range proofs {
			resp.Proofs[j] = p.Marshal()
		}
		if _, err := json.Marshal(resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatusEncodeBinary is the same batch through the IRSW1
// encoder with a pooled buffer — the steady-state server hot path.
// The alloc guard in scripts/check.sh pins this at 0 allocs/op.
func BenchmarkStatusEncodeBinary(b *testing.B) {
	proofs := benchProofs(b, MaxStatusBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := GetBuf()
		*bp = EncodeStatusBatchResp(*bp, proofs)
		PutBuf(bp)
	}
}

// BenchmarkStatusDecodeBinary is the client-side frame walk over a
// full batch response — borrowed slices only, pinned at 0 allocs/op
// by the check.sh guard. (Materializing *StatusProof values costs the
// same under either codec and is measured by the roundtrip bench.)
func BenchmarkStatusDecodeBinary(b *testing.B) {
	proofs := benchProofs(b, MaxStatusBatch)
	body := EncodeStatusBatchResp(nil, proofs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kind, payload, err := DecodeMsg(body, MaxFramePayload)
		if err != nil || kind != MsgStatusBatchResp {
			b.Fatal(err)
		}
		if _, err := DecodeStatusBatchResp(payload, func(int, []byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateBatchRoundtrip encodes and fully decodes one
// page-sized proxy answer under each codec, allocations reported —
// the browser round's serialization cost in isolation.
func BenchmarkValidateBatchRoundtrip(b *testing.B) {
	proofs := benchProofs(b, 60) // a large page, well under MaxStatusBatch

	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			type vr struct {
				State       string `json:"state"`
				Source      string `json:"source"`
				Displayable bool   `json:"displayable"`
				Proof       []byte `json:"proof,omitempty"`
			}
			out := make([]vr, len(proofs))
			for j, p := range proofs {
				out[j] = vr{State: p.State.String(), Source: "ledger", Displayable: true, Proof: p.Marshal()}
			}
			doc, err := json.Marshal(struct {
				Results []vr `json:"results"`
			}{out})
			if err != nil {
				b.Fatal(err)
			}
			var back struct {
				Results []vr `json:"results"`
			}
			if err := json.Unmarshal(doc, &back); err != nil {
				b.Fatal(err)
			}
			if len(back.Results) != len(proofs) {
				b.Fatal("short decode")
			}
		}
	})

	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bp := GetBuf()
			*bp = EncodeValidateBatchResp(*bp, len(proofs),
				func(j int) (byte, byte, bool, *ledger.StatusProof) {
					return byte(proofs[j].State), 2, true, proofs[j]
				})
			kind, payload, err := DecodeMsg(*bp, MaxFramePayload)
			if err != nil || kind != MsgValidateBatchResp {
				b.Fatal(err)
			}
			n, err := DecodeValidateBatchResp(payload, func(int, ValidateWire) error { return nil })
			if err != nil || n != len(proofs) {
				b.Fatal(err)
			}
			PutBuf(bp)
		}
	})
}
