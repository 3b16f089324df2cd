package wire

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"irs/internal/bloom"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/tsa"
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

// BenchmarkOpClaimCodecBinary is the write plane's hop-2 framing: one
// signed owner op and one claim, request and answer, each encoded into
// a pooled buffer and decoded in place — pinned at 0 allocs/op by the
// check.sh guard.
func BenchmarkOpClaimCodecBinary(b *testing.B) {
	proof := benchProofs(b, 1)[0]
	sig := make([]byte, 64)
	req := &ClaimRequest{ContentHash: make([]byte, 32), PubKey: make([]byte, 32), HashSig: sig, Custodial: true}
	rc := ledger.Receipt{ID: proof.ID, Timestamp: &tsa.Token{Time: proof.IssuedAt, Sig: sig}, Proof: proof}
	decode := func(frame []byte, kind byte) []byte {
		k, payload, err := DecodeMsg(frame, MaxFramePayload)
		if err != nil || k != kind {
			b.Fatalf("kind %c: %v", k, err)
		}
		return payload
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := GetBuf()
		*bp = EncodeOpReq((*bp)[:0], proof.ID, ledger.OpRevoke, sig)
		if _, _, _, err := DecodeOpReq(decode(*bp, MsgOpReq)); err != nil {
			b.Fatal(err)
		}
		*bp = EncodeOpResp((*bp)[:0])
		if err := DecodeOpResp(decode(*bp, MsgOpResp)); err != nil {
			b.Fatal(err)
		}
		*bp = EncodeClaimReq((*bp)[:0], req)
		if _, err := DecodeClaimReq(decode(*bp, MsgClaimReq)); err != nil {
			b.Fatal(err)
		}
		*bp = EncodeClaimResp((*bp)[:0], rc)
		if _, _, _, err := DecodeClaimResp(decode(*bp, MsgClaimResp)); err != nil {
			b.Fatal(err)
		}
		PutBuf(bp)
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
				func(j int) (byte, byte, *ledger.StatusProof) {
					return byte(proofs[j].State), 2, proofs[j]
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

// countingConn counts the bytes a connection moves both ways.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// BenchmarkFilterSyncServed is one filter pull of a holder (a
// bloom.Window, as in a proxy) through Client and Server over loopback
// HTTP, against a ledger of 10,000 revoked ids on a frozen clock.
// "current": the holder already has the newest epoch, the steady state
// of a proxy polling an idle ledger. "stale": one id changed since the
// newest epoch and the clock moved past the epoch gap, so the pull
// publishes the next epoch and carries its delta. Beside ns/op it
// reports the wire bytes of a pull (request and answer, headers
// included) and allocations, client and server together.
func BenchmarkFilterSyncServed(b *testing.B) {
	for _, stale := range []bool{false, true} {
		name := "current"
		if stale {
			name = "stale"
		}
		b.Run(name, func(b *testing.B) {
			var now atomic.Int64
			now.Store(time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC).UnixNano())
			l, err := ledger.New(ledger.Config{ID: 7, Clock: func() time.Time { return time.Unix(0, now.Load()) }})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			recs := benchRecords(b, 7, 10000)
			if err := l.RestoreRecords(recs); err != nil {
				b.Fatal(err)
			}
			if _, err := l.BuildSnapshot(); err != nil {
				b.Fatal(err)
			}
			srv := httptest.NewServer(NewServer(l, ""))
			defer srv.Close()
			var moved atomic.Int64
			tr := NewTransport()
			dial := tr.DialContext
			tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := dial(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return countingConn{c, &moved}, nil
			}
			c := NewClientOpts(srv.URL, "", ClientOptions{HTTPClient: &http.Client{Transport: tr}})
			holder := bloom.NewWindow(bloom.RelayHistory)
			if _, _, err := holder.Pull(c.FilterSync); err != nil {
				b.Fatal(err)
			}
			moved.Store(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if stale {
					b.StopTimer()
					rec := &recs[i%len(recs)]
					rec.State, rec.OpSeq = ledger.StateActive, rec.OpSeq+1
					if i/len(recs)%2 == 1 {
						rec.State = ledger.StateRevoked
					}
					if err := l.RestoreRecords(recs[i%len(recs) : i%len(recs)+1]); err != nil {
						b.Fatal(err)
					}
					now.Add(int64(time.Second))
					b.StartTimer()
				}
				changed, _, err := holder.Pull(c.FilterSync)
				if err != nil || changed != stale {
					b.Fatalf("pull %d: changed %v, err %v", i, changed, err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(moved.Load())/float64(b.N), "B/pull")
		})
	}
}

// benchRecords builds n revoked records of ledger lid that
// RestoreRecords accepts; their keys and signatures are random bytes.
func benchRecords(b *testing.B, lid ids.LedgerID, n int) []ledger.Record {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	recs := make([]ledger.Record, n)
	for i := range recs {
		id, err := ids.NewFrom(lid, rng)
		if err != nil {
			b.Fatal(err)
		}
		r := &recs[i]
		r.ID, r.State = id, ledger.StateRevoked
		r.PubKey = make([]byte, ed25519.PublicKeySize)
		r.HashSig = make([]byte, ed25519.SignatureSize)
		rng.Read(r.PubKey)
		rng.Read(r.HashSig)
		rng.Read(r.ContentHash[:])
		r.Timestamp = &tsa.Token{Serial: uint64(i + 1), Time: time.Unix(1700000000, 0).UTC(), Digest: r.ContentHash, Sig: make([]byte, ed25519.SignatureSize)}
	}
	return recs
}
