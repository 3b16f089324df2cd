package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
)

// fixedClock makes proofs deterministic so the server's JSON answer
// and the client's IRSW1 one can be compared byte for byte.
func fixedClock() time.Time { return time.Unix(1700000000, 0).UTC() }

// rawJSON fetches url with plain net/http, the way a browser or curl
// asks: no IRSW1 in Accept, a JSON body when body is non-nil. It
// decodes the JSON answer into v.
func rawJSON(t *testing.T, url string, body, v any) {
	t.Helper()
	var r *http.Response
	var err error
	if body == nil {
		r, err = http.Get(url)
	} else {
		data, merr := json.Marshal(body)
		if merr != nil {
			t.Fatal(merr)
		}
		r, err = http.Post(url, ContentTypeJSON, bytes.NewReader(data))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK || !strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeJSON) {
		t.Fatalf("%s: status %d, content type %q", url, r.StatusCode, r.Header.Get("Content-Type"))
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryStatusMatchesJSON pins the server's JSON path against the
// client: on a fixed-clock ledger, the JSON answer a browser gets and
// the IRSW1 answer the client decodes carry byte-identical proofs.
func TestBinaryStatusMatchesJSON(t *testing.T) {
	env := newEnv(t, ledger.Config{Clock: fixedClock}, "")
	k := newKeypair(t)
	r1 := k.claimVia(t, env.client, "codec photo 1", false)
	r2 := k.claimVia(t, env.client, "codec photo 2", true)

	for _, id := range []ids.PhotoID{r1.ID, r2.ID} {
		var jr StatusResponse
		rawJSON(t, env.server.URL+"/v1/status?id="+id.String(), nil, &jr)
		bp, err := env.client.Status(id)
		if err != nil {
			t.Fatalf("binary status: %v", err)
		}
		if !bytes.Equal(jr.Proof, bp.Marshal()) || jr.State != bp.State.String() {
			t.Errorf("id %s: JSON answer %s differs from the IRSW1 one %v", id, jr.State, bp.State)
		}
		if err := ledger.VerifyProof(env.ledger.SigningKey(), bp, fixedClock(), 0); err != nil {
			t.Errorf("binary proof does not verify: %v", err)
		}
	}

	batch := []ids.PhotoID{r1.ID, r2.ID, r1.ID}
	req := &StatusBatchRequest{}
	for _, id := range batch {
		req.IDs = append(req.IDs, id.String())
	}
	var jr StatusBatchResponse
	rawJSON(t, env.server.URL+"/v1/status/batch", req, &jr)
	bps, err := env.client.StatusBatch(batch)
	if err != nil {
		t.Fatalf("binary batch: %v", err)
	}
	if len(jr.Proofs) != len(batch) {
		t.Fatalf("JSON batch carries %d proofs for %d ids", len(jr.Proofs), len(batch))
	}
	for i := range batch {
		if !bytes.Equal(jr.Proofs[i], bps[i].Marshal()) {
			t.Errorf("proof %d: JSON and IRSW1 answers differ", i)
		}
	}
}

// TestBinaryFilterSyncMatchesJSON pins the filter sync payload and
// epoch of the server's octet-stream answer against the client's IRSW1
// one.
func TestBinaryFilterSyncMatchesJSON(t *testing.T) {
	env := newEnv(t, ledger.Config{Clock: fixedClock}, "")
	k := newKeypair(t)
	k.claimVia(t, env.client, "sync photo", true)
	if _, err := env.ledger.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}

	r, err := http.Get(env.server.URL + "/v1/filter/sync?from=0")
	if err != nil {
		t.Fatal(err)
	}
	jpay, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	jepoch, err := strconv.ParseUint(r.Header.Get("X-IRS-Epoch"), 10, 64)
	if err != nil {
		t.Fatalf("octet-stream answer without an epoch: %v", err)
	}
	bpay, bepoch, err := env.client.FilterSync(0, nil)
	if err != nil {
		t.Fatalf("binary sync: %v", err)
	}
	if jepoch != bepoch {
		t.Errorf("epochs disagree: octet-stream %d binary %d", jepoch, bepoch)
	}
	if len(jpay) == 0 || !bytes.Equal(jpay, bpay) {
		t.Errorf("sync payloads disagree: octet-stream %d bytes, binary %d bytes", len(jpay), len(bpay))
	}
}

// recordingServer records the Content-Type and Accept of every request
// before the handler it wraps serves it.
type recordingServer struct {
	mu          sync.Mutex
	contentType []string
	accept      []string
}

func (rs *recordingServer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rs.mu.Lock()
		rs.contentType = append(rs.contentType, r.Header.Get("Content-Type"))
		rs.accept = append(rs.accept, r.Header.Get("Accept"))
		rs.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

// TestClientFirstRequestIsIRSW1: a fresh client's very first hot
// request already speaks IRSW1, with no JSON opening round and no JSON
// in Accept.
func TestClientFirstRequestIsIRSW1(t *testing.T) {
	l, err := ledger.New(ledger.Config{ID: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	id, err := ids.New(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	rec := &recordingServer{}
	srv := httptest.NewServer(rec.wrap(NewServer(l, "")))
	defer srv.Close()

	if _, err := NewClient(srv.URL, "").StatusBatch([]ids.PhotoID{id}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(srv.URL, "").Status(id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewClient(srv.URL, "").FilterSync(0, nil); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.contentType[0] != ContentTypeBinary {
		t.Errorf("first StatusBatch sent Content-Type %q", rec.contentType[0])
	}
	for i, accept := range rec.accept {
		if accept != ContentTypeBinary {
			t.Errorf("request %d sent Accept %q, want %q", i, accept, ContentTypeBinary)
		}
	}
}

// TestClientRefusesNonBinaryAnswer: a 2xx answer to a hot RPC in the
// server's other encoding is a protocol error with no results, not a
// downgrade. The server here is a real one whose requests lose their
// Accept header, so it answers exactly what it answers curl.
func TestClientRefusesNonBinaryAnswer(t *testing.T) {
	env := newEnv(t, ledger.Config{}, "")
	k := newKeypair(t)
	id := k.claimVia(t, env.client, "json answer", true).ID
	if _, err := env.ledger.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	inner := NewServer(env.ledger, "")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, "")

	if p, err := c.Status(id); err == nil || p != nil {
		t.Errorf("JSON status answer accepted: %v, %v", p, err)
	}
	if ps, err := c.StatusBatch([]ids.PhotoID{id}); err == nil || ps != nil {
		t.Errorf("JSON status batch answer accepted: %v, %v", ps, err)
	}
	if payload, latest, err := c.FilterSync(0, nil); err == nil || payload != nil || latest != 0 {
		t.Errorf("octet-stream filter sync answer accepted: %d bytes, epoch %d, %v", len(payload), latest, err)
	}
	var te *TransportError
	if _, err := c.Status(id); errors.As(err, &te) || Retryable(err, true) {
		t.Errorf("a well-delivered answer in the wrong encoding is retryable: %v", err)
	}
}

// TestServerSendsNoWireAdvertisement: no response — JSON, IRSW1 or
// error — carries an X-IRS-Wire header.
func TestServerSendsNoWireAdvertisement(t *testing.T) {
	env := newEnv(t, ledger.Config{}, "")
	id := hostileID(t)
	for name, req := range map[string]func() (*http.Response, error){
		"json status": func() (*http.Response, error) { return http.Get(env.server.URL + "/v1/status?id=" + id.String()) },
		"binary batch": func() (*http.Response, error) {
			hr, err := http.NewRequest(http.MethodPost, env.server.URL+"/v1/status/batch",
				bytes.NewReader(EncodeStatusBatchReq(nil, []ids.PhotoID{id})))
			if err != nil {
				return nil, err
			}
			hr.Header.Set("Content-Type", ContentTypeBinary)
			hr.Header.Set("Accept", ContentTypeBinary)
			return http.DefaultClient.Do(hr)
		},
		"bad request": func() (*http.Response, error) { return http.Get(env.server.URL + "/v1/status?id=bogus") },
	} {
		r, err := req()
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if v := r.Header.Get("X-Irs-Wire"); v != "" {
			t.Errorf("%s: response carries X-Irs-Wire: %s", name, v)
		}
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
	n, err := decodeIDBatch(payload, func(i int, id ids.PhotoID) error {
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
