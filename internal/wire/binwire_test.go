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
// client: on a fixed-clock ledger, the JSON status batch answer a
// browser gets and the IRSW1 answer the client decodes carry
// byte-identical proofs.
func TestBinaryStatusMatchesJSON(t *testing.T) {
	env := newEnv(t, ledger.Config{Clock: fixedClock}, "")
	k := newKeypair(t)
	r1 := k.claimVia(t, env.client, "codec photo 1", false)
	r2 := k.claimVia(t, env.client, "codec photo 2", true)

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

// recordingServer records the method, Content-Type and Accept of every
// request before the handler it wraps serves it.
type recordingServer struct {
	mu          sync.Mutex
	method      []string
	contentType []string
	accept      []string
}

func (rs *recordingServer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rs.mu.Lock()
		rs.method = append(rs.method, r.Method+" "+r.URL.Path)
		rs.contentType = append(rs.contentType, r.Header.Get("Content-Type"))
		rs.accept = append(rs.accept, r.Header.Get("Accept"))
		rs.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

// TestClientFirstRequestIsIRSW1: a fresh client's very first hot
// request already speaks IRSW1, with no JSON opening round and no JSON
// in Accept — the write plane's claims and owner ops included, so the
// client sends no JSON body at all.
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
	k := newKeypair(t)
	rc, err := NewClient(srv.URL, "").Claim(k.claimOf("first claim", false, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := NewClient(srv.URL, "").Apply(rc.ID, ledger.OpRevoke, 1, k.signOp(rc.ID, ledger.OpRevoke, 1)); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.method) != 5 {
		t.Fatalf("%d requests for 5 calls: %v", len(rec.method), rec.method)
	}
	for i, m := range rec.method {
		if strings.HasPrefix(m, http.MethodPost) && rec.contentType[i] != ContentTypeBinary {
			t.Errorf("%s sent Content-Type %q", m, rec.contentType[i])
		}
		if rec.accept[i] != ContentTypeBinary {
			t.Errorf("%s sent Accept %q, want %q", m, rec.accept[i], ContentTypeBinary)
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
	if rc, err := c.Claim(k.claimOf("json claim answer", false, false)); err == nil || rc.Timestamp != nil {
		t.Errorf("JSON claim answer accepted: %+v, %v", rc, err)
	}
	if err := c.Apply(id, ledger.OpUnrevoke, 1, k.signOp(id, ledger.OpUnrevoke, 1)); err == nil {
		t.Error("JSON op answer accepted")
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
	id3, err := ids.New(4)
	if err != nil {
		t.Fatal(err)
	}
	// Two runs of ledger 3 around one of ledger 4.
	batch := []ids.PhotoID{id1, id2, id3, id1}

	req := EncodeStatusBatchReq(nil, batch)
	kind, payload, err := DecodeMsg(req, MaxFramePayload)
	if err != nil || kind != MsgStatusBatchReq {
		t.Fatalf("batch req decode: kind %c err %v", kind, err)
	}
	got, err := decodeIDBatch(nil, payload)
	if err != nil || len(got) != len(batch) || got[0] != id1 || got[1] != id2 || got[2] != id3 || got[3] != id1 {
		t.Fatalf("batch req roundtrip: err=%v got=%v", err, got)
	}
	if want := 1 + 3*(4+1) + 4*12; len(payload) != want {
		t.Errorf("batch req payload %d bytes, want %d", len(payload), want)
	}

	proof := &ledger.StatusProof{ID: id1, State: ledger.StateActive,
		IssuedAt: fixedClock()}
	resp := EncodeStatusBatchResp(nil, []*ledger.StatusProof{proof, proof})
	kind, payload, err = DecodeMsg(resp, MaxFramePayload)
	if err != nil || kind != MsgStatusBatchResp {
		t.Fatalf("batch resp decode: kind %c err %v", kind, err)
	}
	n, err := DecodeStatusBatchResp(payload, func(i int, tail []byte) error {
		if !bytes.Equal(append(ledger.AppendProofHead(nil, id1), tail...), proof.Marshal()) {
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
	revoked := &ledger.StatusProof{ID: id2, State: ledger.StateRevoked, IssuedAt: fixedClock()}
	vb := EncodeValidateBatchResp(nil, 2, func(i int) (byte, byte, *ledger.StatusProof) {
		if i == 0 {
			return byte(ledger.StateActive), 0, nil
		}
		return byte(ledger.StateRevoked), 2, revoked
	})
	kind, payload, err = DecodeMsg(vb, MaxFramePayload)
	if err != nil || kind != MsgValidateBatchResp {
		t.Fatalf("validate batch decode: kind %c err %v", kind, err)
	}
	n, err = DecodeValidateBatchResp(payload, func(i int, v ValidateWire) error {
		switch i {
		case 0:
			if v.State != byte(ledger.StateActive) || v.Source != 0 || v.Signed != nil {
				t.Errorf("entry 0 mismatch: %+v", v)
			}
		case 1:
			if v.State != byte(ledger.StateRevoked) || v.Source != 2 || !bytes.Equal(v.AppendProof(nil, id2), revoked.Marshal()) {
				t.Errorf("entry 1 mismatch: %+v", v)
			}
		}
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("validate batch roundtrip: n=%d err=%v", n, err)
	}
	if want := 1 + 1 + ledger.ProofTailSize; len(payload) != want {
		t.Errorf("validate batch payload %d bytes, want %d", len(payload), want)
	}
}
