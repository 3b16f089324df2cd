package wire_test

// The two IRSW1 hops — wire.Client to the ledger's wire.Server, and
// proxy.Client to proxy.Server — run on one exchange, one id-batch
// reader and one answer writer, so these tests hold both hops to one
// contract: every client case runs through both clients, and every
// hostile request through both batch routes.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/proxy"
	"irs/internal/wire"
)

func newID(t *testing.T) ids.PhotoID {
	t.Helper()
	id, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// countingServer answers every request with status, content type ct and
// body, and counts the requests it receives.
func countingServer(t *testing.T, status int, ct string, body []byte) (string, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", ct)
		w.WriteHeader(status)
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv.URL, &hits
}

// statusFrame builds one well-formed MsgStatusResp frame around
// proofLen zero bytes (frame-valid, proof-invalid).
func statusFrame(proofLen int) []byte {
	b := append(wire.BeginFrame(nil), wire.MsgStatusResp, byte(proofLen), byte(proofLen>>8))
	b = append(b, make([]byte, proofLen)...)
	return wire.FinishFrame(b, 0)
}

// isTransport reports a failure unless err is a *wire.TransportError
// that the retry layer replays for an idempotent RPC only.
func isTransport(t *testing.T, who string, err error) {
	t.Helper()
	var te *wire.TransportError
	switch {
	case err == nil:
		t.Errorf("%s: hostile frame accepted", who)
	case !errors.As(err, &te):
		t.Errorf("%s: want TransportError, got %T: %v", who, err, err)
	case !wire.Retryable(err, true):
		t.Errorf("%s: frame error not retryable for an idempotent RPC", who)
	case wire.Retryable(err, false):
		t.Errorf("%s: mid-flight frame error retryable for a non-idempotent RPC", who)
	}
}

// TestBinaryFrameErrorsAreTransport: on either hop, a truncated,
// CRC-flipped, trailing-byte or wrong-kind frame is a TransportError —
// retryable under the idempotency rules — never a silent zero-value
// response.
func TestBinaryFrameErrorsAreTransport(t *testing.T) {
	whole := statusFrame(ledger.MarshaledProofSize)
	corrupt := bytes.Clone(whole)
	corrupt[len(corrupt)-1] ^= 0x01 // payload bit flip vs recorded CRC
	cases := map[string][]byte{
		"empty":       {},
		"short":       whole[:5],
		"truncated":   whole[:len(whole)-3],
		"crc-flipped": corrupt,
		"trailing":    append(bytes.Clone(whole), 0xFF),
		"wrong-kind": func() []byte {
			b := bytes.Clone(whole)
			b[len(wire.BeginFrame(nil))] = wire.MsgFilterSyncResp
			return wire.FinishFrame(b, 0)
		}(),
	}
	id := newID(t)
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			url, _ := countingServer(t, http.StatusOK, wire.ContentTypeBinary, body)
			p, err := wire.NewClient(url, "").Status(id)
			if p != nil {
				t.Errorf("non-nil proof alongside error")
			}
			isTransport(t, "wire.Client.Status", err)
			res, err := proxy.NewClient(url).ValidateBatch([]ids.PhotoID{id})
			if res != nil {
				t.Errorf("results alongside error: %+v", res)
			}
			isTransport(t, "proxy.Client.ValidateBatch", err)
		})
	}

	// A frame-valid body whose proof is semantically bad is a protocol
	// error, not transport: the bytes arrived intact.
	url, _ := countingServer(t, http.StatusOK, wire.ContentTypeBinary, whole)
	_, err := wire.NewClient(url, "").Status(id)
	if err == nil {
		t.Fatal("garbage proof accepted")
	}
	var te *wire.TransportError
	if errors.As(err, &te) {
		t.Errorf("semantic proof failure misclassified as transport: %v", err)
	}
}

// TestClientAgainstConnectionRefused: a dead server is a pre-send
// TransportError on either hop, so even a non-idempotent retry is safe.
func TestClientAgainstConnectionRefused(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	id := newID(t)
	c := wire.NewClient(url, "")
	if _, err := c.Seq(id); err == nil {
		t.Error("dead server produced a seq")
	}
	_, statusErr := c.Status(id)
	_, batchErr := proxy.NewClient(url).ValidateBatch([]ids.PhotoID{id})
	for who, err := range map[string]error{"wire.Client.Status": statusErr, "proxy.Client.ValidateBatch": batchErr} {
		var te *wire.TransportError
		if !errors.As(err, &te) || !te.PreSend {
			t.Errorf("%s: want a pre-send TransportError, got %T: %v", who, err, err)
		}
	}
}

// TestStatusBatchClientRefusesOversized: both clients share the
// servers' bound, so an oversized batch fails before any bytes move.
func TestStatusBatchClientRefusesOversized(t *testing.T) {
	url, hits := countingServer(t, http.StatusBadRequest, wire.ContentTypeJSON, nil)
	batch := make([]ids.PhotoID, wire.MaxStatusBatch+1)
	for i := range batch {
		batch[i] = newID(t)
	}
	if _, err := wire.NewClient(url, "").StatusBatch(batch); err == nil {
		t.Error("wire.Client sent an oversized batch")
	}
	if _, err := proxy.NewClient(url).ValidateBatch(batch); err == nil {
		t.Error("proxy.Client sent an oversized batch")
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("%d requests reached the server", n)
	}
}

// batchRoute is one batch route and the IRSW1 request kinds that are
// its own and the other route's.
type batchRoute struct {
	path        string
	encode      func(dst []byte, batch []ids.PhotoID) []byte
	otherEncode func(dst []byte, batch []ids.PhotoID) []byte
}

var batchRoutes = []batchRoute{
	{"/v1/status/batch", wire.EncodeStatusBatchReq, wire.EncodeValidateBatchReq},
	{"/v1/validate/batch", wire.EncodeValidateBatchReq, wire.EncodeStatusBatchReq},
}

// hostileRequest is one row of the hostile-request table: a body, in
// JSON or IRSW1, that either batch route must answer with 400.
type hostileRequest struct {
	name   string
	binary bool
	body   func(rt batchRoute) []byte
}

// hostileRequests is the one hostile-request table for both batch
// routes; good is a well-formed identifier.
func hostileRequests(good ids.PhotoID) []hostileRequest {
	jsonRow := func(name, body string) hostileRequest {
		return hostileRequest{name, false, func(batchRoute) []byte { return []byte(body) }}
	}
	many := make([]ids.PhotoID, wire.MaxStatusBatch+1)
	strs := make([]string, len(many))
	for i := range many {
		many[i], strs[i] = good, good.String()
	}
	oversized, _ := json.Marshal(&wire.StatusBatchRequest{IDs: strs})
	binRow := func(name string, body func(rt batchRoute) []byte) hostileRequest {
		return hostileRequest{name, true, body}
	}
	one := []ids.PhotoID{good}
	return []hostileRequest{
		jsonRow("not json", "))) not json ((("),
		jsonRow("wrong field", `{"identifiers":["x"]}`),
		jsonRow("empty list", `{"ids":[]}`),
		jsonRow("null list", `{"ids":null}`),
		jsonRow("unparseable id", `{"ids":["not-an-id"]}`),
		jsonRow("mixed good and bad ids", `{"ids":["`+good.String()+`","zzz"]}`),
		jsonRow("oversized batch", string(oversized)),
		jsonRow("megabyte of ids", `{"ids":["`+strings.Repeat("A", 2<<20)+`"]}`),
		binRow("empty", func(batchRoute) []byte { return nil }),
		binRow("garbage", func(batchRoute) []byte { return []byte("not a frame at all") }),
		binRow("truncated", func(rt batchRoute) []byte { return rt.encode(nil, one)[:10] }),
		binRow("crc-flip", func(rt batchRoute) []byte {
			b := rt.encode(nil, one)
			b[len(b)-1] ^= 1
			return b
		}),
		binRow("trailing", func(rt batchRoute) []byte { return append(rt.encode(nil, one), 0) }),
		binRow("zero-count", func(rt batchRoute) []byte { return rt.encode(nil, nil) }),
		binRow("count-257", func(rt batchRoute) []byte { return rt.encode(nil, many) }),
		binRow("wrong-kind", func(rt batchRoute) []byte { return rt.otherEncode(nil, one) }),
	}
}

// runHostileRequests posts every row of the table in the given codec to
// both batch routes — the ledger's and the proxy's in front of it — and
// demands a 400 each time, with nothing validated and nothing sent
// upstream.
func runHostileRequests(t *testing.T, binary bool) {
	l, err := ledger.New(ledger.Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ledgerSrv := httptest.NewServer(wire.NewServer(l, ""))
	t.Cleanup(ledgerSrv.Close)
	// The proxy reaches the same ledger through a server that counts.
	var upstream atomic.Int64
	upstreamSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		upstream.Add(1)
		ledgerSrv.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(upstreamSrv.Close)
	dir := wire.NewDirectory()
	dir.Register(1, wire.NewClient(upstreamSrv.URL, ""))
	px := proxy.NewServer(proxy.Config{}, dir)
	proxySrv := httptest.NewServer(px)
	t.Cleanup(proxySrv.Close)
	base := map[string]string{"/v1/status/batch": ledgerSrv.URL, "/v1/validate/batch": proxySrv.URL}

	for _, row := range hostileRequests(newID(t)) {
		if row.binary != binary {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			for _, rt := range batchRoutes {
				hr, err := http.NewRequest(http.MethodPost, base[rt.path]+rt.path, bytes.NewReader(row.body(rt)))
				if err != nil {
					t.Fatal(err)
				}
				hr.Header.Set("Content-Type", wire.ContentTypeJSON)
				if binary {
					hr.Header.Set("Content-Type", wire.ContentTypeBinary)
					hr.Header.Set("Accept", wire.ContentTypeBinary)
				}
				r, err := http.DefaultClient.Do(hr)
				if err != nil {
					t.Fatal(err)
				}
				r.Body.Close()
				if r.StatusCode != http.StatusBadRequest {
					t.Errorf("%s: status %d, want 400", rt.path, r.StatusCode)
				}
			}
		})
	}
	if n := upstream.Load(); n != 0 {
		t.Errorf("the proxy sent %d requests upstream", n)
	}
	if total := px.Validator().Stats().Total; total != 0 {
		t.Errorf("the proxy validated %d ids", total)
	}
}

// TestStatusBatchServerRejectsHostileBodies: both batch routes answer
// every malformed JSON body of the shared table with 400, instead of
// panicking or part-answering.
func TestStatusBatchServerRejectsHostileBodies(t *testing.T) { runHostileRequests(t, false) }

// TestServerRejectsBadBinaryBatch: both batch routes answer every
// malformed IRSW1 body of the shared table with 400 — a bad frame, a
// count outside 1–256, or the other route's request kind.
func TestServerRejectsBadBinaryBatch(t *testing.T) { runHostileRequests(t, true) }
