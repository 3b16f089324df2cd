package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
)

// fixedClock makes proofs deterministic so the two codecs can be
// compared byte for byte.
func fixedClock() time.Time { return time.Unix(1700000000, 0).UTC() }

// newCodecEnv spins up one fixed-clock ledger server and two clients
// against it, one per codec.
func newCodecEnv(t *testing.T) (env *testEnv, jsonC, binC *Client) {
	t.Helper()
	env = newEnv(t, ledger.Config{Clock: fixedClock}, "")
	jsonC = env.client
	binC = NewClientOpts(env.server.URL, "", ClientOptions{Codec: CodecBinary})
	return env, jsonC, binC
}

// TestBinaryStatusMatchesJSON pins the tentpole's identical-results
// contract: the same ledger answered over IRSW1 and over JSON yields
// byte-identical verified proofs.
func TestBinaryStatusMatchesJSON(t *testing.T) {
	env, jsonC, binC := newCodecEnv(t)
	k := newKeypair(t)
	r1 := k.claimVia(t, jsonC, "codec photo 1", false)
	r2 := k.claimVia(t, jsonC, "codec photo 2", true)

	for _, id := range []ids.PhotoID{r1.ID, r2.ID} {
		jp, err := jsonC.Status(id)
		if err != nil {
			t.Fatalf("json status: %v", err)
		}
		bp, err := binC.Status(id)
		if err != nil {
			t.Fatalf("binary status: %v", err)
		}
		if !bytes.Equal(jp.Marshal(), bp.Marshal()) {
			t.Errorf("id %s: codecs disagree on the proof bytes", id)
		}
		if err := ledger.VerifyProof(env.ledger.SigningKey(), bp, fixedClock(), 0); err != nil {
			t.Errorf("binary proof does not verify: %v", err)
		}
	}

	batch := []ids.PhotoID{r1.ID, r2.ID, r1.ID}
	jps, err := jsonC.StatusBatch(batch)
	if err != nil {
		t.Fatalf("json batch: %v", err)
	}
	// The Status calls above already upgraded the client (the server
	// advertises IRSW1 on every response); two rounds exercise both the
	// first binary-body batch and the steady-state one.
	for round := 0; round < 2; round++ {
		bps, err := binC.StatusBatch(batch)
		if err != nil {
			t.Fatalf("binary batch round %d: %v", round, err)
		}
		for i := range batch {
			if !bytes.Equal(jps[i].Marshal(), bps[i].Marshal()) {
				t.Errorf("round %d proof %d: codecs disagree", round, i)
			}
		}
	}
	if !binC.binOK.Load() {
		t.Error("binary client never observed the server's IRSW1 advertisement")
	}
}

// TestBinaryFilterSyncMatchesJSON pins the filter sync payload and
// epoch across codecs.
func TestBinaryFilterSyncMatchesJSON(t *testing.T) {
	env, jsonC, binC := newCodecEnv(t)
	k := newKeypair(t)
	k.claimVia(t, jsonC, "sync photo", true)
	if _, err := env.ledger.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}

	jpay, jepoch, err := jsonC.FilterSync(0, nil)
	if err != nil {
		t.Fatalf("json sync: %v", err)
	}
	bpay, bepoch, err := binC.FilterSync(0, nil)
	if err != nil {
		t.Fatalf("binary sync: %v", err)
	}
	if jepoch != bepoch {
		t.Errorf("epochs disagree: json %d binary %d", jepoch, bepoch)
	}
	if !bytes.Equal(jpay, bpay) {
		t.Errorf("sync payloads disagree: json %d bytes, binary %d bytes", len(jpay), len(bpay))
	}
}

// legacyServer wraps a modern Server to behave like a pre-IRSW1
// deployment: no advertisement, no binary responses, and binary
// request bodies are rejected at parse time with a JSON 400 — which is
// exactly what the old code did with a non-JSON body.
func legacyServer(t *testing.T, l *ledger.Ledger) *httptest.Server {
	t.Helper()
	inner := NewServer(l, "")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if IsBinaryContent(r.Header.Get("Content-Type")) {
			WriteError(w, http.StatusBadRequest, "invalid character looking for beginning of value")
			return
		}
		r.Header.Del("Accept")
		inner.ServeHTTP(&headerStrippingWriter{ResponseWriter: w}, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// headerStrippingWriter deletes the IRSW1 advertisement right before
// headers are flushed.
type headerStrippingWriter struct {
	http.ResponseWriter
}

func (w *headerStrippingWriter) WriteHeader(code int) {
	w.Header().Del(WireHeader)
	w.ResponseWriter.WriteHeader(code)
}

func (w *headerStrippingWriter) Write(b []byte) (int, error) {
	w.Header().Del(WireHeader)
	return w.ResponseWriter.Write(b)
}

// TestBinaryClientAgainstLegacyServer pins the downgrade direction of
// mixed-version compat: a binary-preferring client must get identical
// proofs from a JSON-only server, including the rollback case where
// the client had already upgraded to binary request bodies.
func TestBinaryClientAgainstLegacyServer(t *testing.T) {
	l, err := ledger.New(ledger.Config{ID: 7, Clock: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	legacy := legacyServer(t, l)
	modern := httptest.NewServer(NewServer(l, ""))
	t.Cleanup(modern.Close)

	k := newKeypair(t)
	r := k.claimVia(t, NewClient(legacy.URL, ""), "legacy photo", false)
	batch := []ids.PhotoID{r.ID, r.ID}

	want, err := NewClient(legacy.URL, "").StatusBatch(batch)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh binary client against the legacy server: stays on JSON.
	binC := NewClientOpts(legacy.URL, "", ClientOptions{Codec: CodecBinary})
	got, err := binC.StatusBatch(batch)
	if err != nil {
		t.Fatalf("binary client vs legacy server: %v", err)
	}
	for i := range batch {
		if !bytes.Equal(want[i].Marshal(), got[i].Marshal()) {
			t.Errorf("proof %d: legacy answer differs", i)
		}
	}
	if binC.binOK.Load() {
		t.Error("client thinks a legacy server speaks IRSW1")
	}
	if p, err := binC.Status(r.ID); err != nil {
		t.Fatalf("binary client status vs legacy server: %v", err)
	} else if !bytes.Equal(p.Marshal(), want[0].Marshal()) {
		t.Error("status proof differs from legacy answer")
	}
	if _, err := l.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := binC.FilterSync(0, nil); err != nil {
		t.Fatalf("binary client filter sync vs legacy server: %v", err)
	}

	// Rollback: a client that upgraded against a modern server is then
	// pointed (same negotiation state) at a legacy one — e.g. a proxy
	// behind a flapping load balancer. The binary body is rejected at
	// parse time, so one JSON re-encode must recover, and the client
	// must drop back to JSON bodies.
	rolled := NewClientOpts(modern.URL, "", ClientOptions{Codec: CodecBinary})
	if _, err := rolled.StatusBatch(batch); err != nil {
		t.Fatalf("warm-up against modern server: %v", err)
	}
	if !rolled.binOK.Load() {
		t.Fatal("warm-up did not upgrade the client")
	}
	rolled.base = legacy.URL
	got, err = rolled.StatusBatch(batch)
	if err != nil {
		t.Fatalf("rolled-back batch: %v", err)
	}
	for i := range batch {
		if !bytes.Equal(want[i].Marshal(), got[i].Marshal()) {
			t.Errorf("rolled-back proof %d differs", i)
		}
	}
	if rolled.binOK.Load() {
		t.Error("client did not drop binary bodies after the rollback 400")
	}
}

// binHostile serves exactly body with the IRSW1 content type and
// advertisement, regardless of the request.
func binHostile(t *testing.T, body []byte) *Client {
	t.Helper()
	srv := hostileServer(t, http.StatusOK, ContentTypeBinary, string(body),
		map[string]string{WireHeader: WireV1})
	return NewClientOpts(srv.URL, "", ClientOptions{Codec: CodecBinary})
}

// validStatusFrame builds one well-formed MsgStatusResp frame around
// garbage proof bytes (frame-valid, proof-invalid).
func validStatusFrame(proofLen int) []byte {
	var b []byte
	b = BeginFrame(b)
	b = append(b, MsgStatusResp)
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(proofLen))
	b = append(b, l[:]...)
	b = append(b, make([]byte, proofLen)...)
	return FinishFrame(b, 0)
}

// TestBinaryFrameErrorsAreTransport pins the satellite contract: a
// truncated or CRC-flipped frame is a TransportError — retryable under
// the idempotency rules — never a silent zero-value response.
func TestBinaryFrameErrorsAreTransport(t *testing.T) {
	whole := validStatusFrame(ledger.MarshaledProofSize)
	corrupt := append([]byte(nil), whole...)
	corrupt[len(corrupt)-1] ^= 0x01 // payload bit flip vs recorded CRC

	cases := map[string][]byte{
		"empty":       {},
		"short":       whole[:5],
		"truncated":   whole[:len(whole)-3],
		"crc-flipped": corrupt,
		"trailing":    append(append([]byte(nil), whole...), 0xFF),
		"wrong-kind": func() []byte {
			b := append([]byte(nil), whole...)
			b[frameHeader] = MsgFilterSyncResp
			return FinishFrame(b, 0)
		}(),
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			c := binHostile(t, body)
			p, err := c.Status(hostileID(t))
			if err == nil {
				t.Fatalf("hostile frame accepted, proof=%v", p)
			}
			if p != nil {
				t.Errorf("non-nil proof alongside error")
			}
			var te *TransportError
			if !errors.As(err, &te) {
				t.Fatalf("want TransportError, got %T: %v", err, err)
			}
			if !Retryable(err, true) {
				t.Error("frame error not retryable for idempotent RPC")
			}
			if Retryable(err, false) {
				t.Error("mid-flight frame error retryable for non-idempotent RPC")
			}
		})
	}

	// A frame-valid body whose proof is semantically bad is a protocol
	// error, not transport: the bytes arrived intact.
	c := binHostile(t, validStatusFrame(ledger.MarshaledProofSize))
	_, err := c.Status(hostileID(t))
	if err == nil {
		t.Fatal("garbage proof accepted")
	}
	var te *TransportError
	if errors.As(err, &te) {
		t.Errorf("semantic proof failure misclassified as transport: %v", err)
	}
}

// TestBinaryRoundtrips unit-tests each IRSW1 message codec.
func TestBinaryRoundtrips(t *testing.T) {
	id1, err := ids.New(3)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := ids.New(3)
	if err != nil {
		t.Fatal(err)
	}
	batch := []ids.PhotoID{id1, id2}

	req := EncodeStatusBatchReq(nil, batch)
	kind, payload, err := DecodeMsg(req, MaxFramePayload)
	if err != nil || kind != MsgStatusBatchReq {
		t.Fatalf("batch req decode: kind %c err %v", kind, err)
	}
	var got []ids.PhotoID
	n, err := DecodeStatusBatchReq(payload, func(i int, id ids.PhotoID) error {
		got = append(got, id)
		return nil
	})
	if err != nil || n != 2 || got[0] != id1 || got[1] != id2 {
		t.Fatalf("batch req roundtrip: n=%d err=%v got=%v", n, err, got)
	}

	proof := &ledger.StatusProof{ID: id1, State: ledger.StateActive,
		IssuedAt: fixedClock()}
	resp := EncodeStatusBatchResp(nil, []*ledger.StatusProof{proof, proof})
	kind, payload, err = DecodeMsg(resp, MaxFramePayload)
	if err != nil || kind != MsgStatusBatchResp {
		t.Fatalf("batch resp decode: kind %c err %v", kind, err)
	}
	n, err = DecodeStatusBatchResp(payload, func(i int, raw []byte) error {
		if !bytes.Equal(raw, proof.Marshal()) {
			t.Errorf("proof %d bytes differ", i)
		}
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("batch resp roundtrip: n=%d err=%v", n, err)
	}

	fs := EncodeFilterSyncResp(nil, 42, []byte("payload"))
	kind, payload, err = DecodeMsg(fs, MaxFramePayload)
	if err != nil || kind != MsgFilterSyncResp {
		t.Fatalf("sync decode: kind %c err %v", kind, err)
	}
	latest, upd, err := DecodeFilterSyncResp(payload)
	if err != nil || latest != 42 || string(upd) != "payload" {
		t.Fatalf("sync roundtrip: latest=%d upd=%q err=%v", latest, upd, err)
	}

	// Validate entries, including the proof-less filter-miss shape.
	vb := EncodeValidateBatchResp(nil, 2, func(i int) (byte, byte, bool, *ledger.StatusProof) {
		if i == 0 {
			return byte(ledger.StateActive), 0, true, nil
		}
		return byte(ledger.StateRevoked), 2, false, proof
	})
	kind, payload, err = DecodeMsg(vb, MaxFramePayload)
	if err != nil || kind != MsgValidateBatchResp {
		t.Fatalf("validate batch decode: kind %c err %v", kind, err)
	}
	n, err = DecodeValidateBatchResp(payload, func(i int, v ValidateWire) error {
		switch i {
		case 0:
			if v.State != byte(ledger.StateActive) || !v.Displayable || v.Proof != nil {
				t.Errorf("entry 0 mismatch: %+v", v)
			}
		case 1:
			if v.State != byte(ledger.StateRevoked) || v.Displayable || !bytes.Equal(v.Proof, proof.Marshal()) {
				t.Errorf("entry 1 mismatch: %+v", v)
			}
		}
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("validate batch roundtrip: n=%d err=%v", n, err)
	}
}

// TestServerRejectsBadBinaryBatch pins the server side of hostile
// input: malformed IRSW1 request bodies are a 400, mirroring the JSON
// validation failures, and never crash the handler.
func TestServerRejectsBadBinaryBatch(t *testing.T) {
	env := newEnv(t, ledger.Config{}, "")
	bodies := map[string][]byte{
		"empty":      {},
		"garbage":    []byte("not a frame at all"),
		"zero-count": EncodeStatusBatchReq(nil, nil),
		"truncated":  EncodeStatusBatchReq(nil, []ids.PhotoID{hostileID(t)})[:10],
		"wrong-kind": EncodeStatusResp(nil, &ledger.StatusProof{}),
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			r, err := http.Post(env.server.URL+"/v1/status/batch", ContentTypeBinary,
				bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Body.Close()
			if r.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400", r.StatusCode)
			}
			if r.Header.Get(WireHeader) != WireV1 {
				t.Errorf("error response lost the IRSW1 advertisement")
			}
		})
	}
}
