package wire_test

// The two IRSW1 hops — wire.Client to the ledger's wire.Server, and
// proxy.Client to proxy.Server — run on one exchange, one id-batch
// reader and one answer writer, so these tests hold both hops to one
// contract: every client case runs through both clients, and every
// hostile request through both batch routes.

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
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

// proofFrame builds one well-formed frame of the given kind around a
// field of proofLen zero bytes (frame-valid, proof-invalid). With
// wire.MsgStatusBatchResp it is a one-proof batch answer.
func proofFrame(kind byte, proofLen int) []byte {
	b := append(wire.BeginFrame(nil), kind)
	if kind == wire.MsgStatusBatchResp {
		b = append(b, 1)
	}
	b = append(b, byte(proofLen), byte(proofLen>>8))
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
// retryable under the idempotency rules, so never for a claim or an
// owner op — never a silent zero-value response.
func TestBinaryFrameErrorsAreTransport(t *testing.T) {
	whole := proofFrame(wire.MsgStatusBatchResp, ledger.MarshaledProofSize)
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
		// The single-status kind a ledger answered before Status became
		// a one-id status batch.
		"retired-status-kind": proofFrame('s', ledger.MarshaledProofSize),
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
			res, err := proxy.NewClientHTTP(url, wire.CodecBinary, http.DefaultClient).ValidateBatch([]ids.PhotoID{id})
			if res != nil {
				t.Errorf("results alongside error: %+v", res)
			}
			isTransport(t, "proxy.Client.ValidateBatch", err)
			c := wire.NewClient(url, "")
			isTransport(t, "wire.Client.Apply", c.Apply(id, ledger.OpRevoke, 1, make([]byte, 64)))
			rc, err := c.Claim(&wire.ClaimRequest{ContentHash: make([]byte, 32), PubKey: make([]byte, 32), HashSig: make([]byte, 64)})
			if rc.Timestamp != nil {
				t.Errorf("receipt alongside error: %+v", rc)
			}
			isTransport(t, "wire.Client.Claim", err)
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
	_, batchErr := proxy.NewClientHTTP(url, wire.CodecBinary, http.DefaultClient).ValidateBatch([]ids.PhotoID{id})
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
	if _, err := proxy.NewClientHTTP(url, wire.CodecBinary, http.DefaultClient).ValidateBatch(batch); err == nil {
		t.Error("proxy.Client sent an oversized batch")
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("%d requests reached the server", n)
	}
}

// TestWriteClientRefusesMisSizedFields: a claim whose hash, key or
// signature, or an op whose signature, has the wrong size never leaves
// the client, since the fixed-size IRSW1 fields would misalign.
func TestWriteClientRefusesMisSizedFields(t *testing.T) {
	url, hits := countingServer(t, http.StatusBadRequest, wire.ContentTypeJSON, nil)
	c := wire.NewClient(url, "")
	for name, req := range map[string]*wire.ClaimRequest{
		"hash-31": {ContentHash: make([]byte, 31), PubKey: make([]byte, 32), HashSig: make([]byte, 64)},
		"pub-33":  {ContentHash: make([]byte, 32), PubKey: make([]byte, 33), HashSig: make([]byte, 64)},
		"sig-63":  {ContentHash: make([]byte, 32), PubKey: make([]byte, 32), HashSig: make([]byte, 63)},
		"shifted": {ContentHash: make([]byte, 31), PubKey: make([]byte, 33), HashSig: make([]byte, 64)},
	} {
		if _, err := c.Claim(req); err == nil {
			t.Errorf("claim %s: sent", name)
		}
	}
	id, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 63, 65} {
		if err := c.Apply(id, ledger.OpRevoke, 1, make([]byte, n)); err == nil {
			t.Errorf("op with a %d-byte signature: sent", n)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("%d requests reached the server", n)
	}
}

// hostileFixture is what the well-formed requests of the hostile
// table are made of: a claimed id, its owner's key, and an unclaimed
// content hash. Each such request, sent intact, would change the
// ledger or validate an id.
type hostileFixture struct {
	id    ids.PhotoID
	pub   ed25519.PublicKey
	owner ed25519.PrivateKey
	fresh [32]byte
}

// op encodes the first op on fx.id with op byte op, signed by its
// owner (whatever op names), and the signature resized by trim bytes
// (negative drops, positive appends).
func (fx *hostileFixture) op(op ledger.Op, trim int) []byte {
	sig := ed25519.Sign(fx.owner, ledger.OpMsg(fx.id, op, 1))
	if trim < 0 {
		sig = sig[:len(sig)+trim]
	} else {
		sig = append(sig, make([]byte, trim)...)
	}
	return wire.EncodeOpReq(nil, fx.id, op, sig)
}

// claim returns a correctly signed claim of fx.fresh.
func (fx *hostileFixture) claim() *wire.ClaimRequest {
	return &wire.ClaimRequest{ContentHash: fx.fresh[:], PubKey: fx.pub,
		HashSig: ed25519.Sign(fx.owner, ledger.ClaimMsg(fx.fresh))}
}

// hostileRoute is one route the hostile table runs against. good and
// other build well-formed IRSW1 requests: one of the route's own kind,
// and one of another route's.
type hostileRoute struct {
	path        string
	good, other func(fx *hostileFixture) []byte
	// batch encodes the route's own id batch (batch routes only).
	batch func(dst []byte, batch []ids.PhotoID) []byte
}

var (
	batchRoutes = []hostileRoute{
		{"/v1/status/batch", statusBatchOf, validateBatchOf, wire.EncodeStatusBatchReq},
		{"/v1/validate/batch", validateBatchOf, statusBatchOf, wire.EncodeValidateBatchReq},
	}
	writeRoutes = []hostileRoute{
		{"/v1/op", revokeOf, claimOf, nil},
		{"/v1/claim", claimOf, revokeOf, nil},
	}
)

func statusBatchOf(fx *hostileFixture) []byte {
	return wire.EncodeStatusBatchReq(nil, []ids.PhotoID{fx.id})
}

func validateBatchOf(fx *hostileFixture) []byte {
	return wire.EncodeValidateBatchReq(nil, []ids.PhotoID{fx.id})
}

func revokeOf(fx *hostileFixture) []byte { return fx.op(ledger.OpRevoke, 0) }

func claimOf(fx *hostileFixture) []byte { return wire.EncodeClaimReq(nil, fx.claim()) }

// hostileRequest is one row of the hostile-request table: a body, in
// JSON or IRSW1, that the routes it is for must answer with 400.
type hostileRequest struct {
	name   string
	binary bool
	// route, when set, limits the row to the routes whose path ends in
	// it ("/batch" is both batch routes).
	route string
	body  func(rt hostileRoute) []byte
}

// hostileRequests is the one hostile-request table for the batch and
// write routes.
func hostileRequests(fx *hostileFixture) []hostileRequest {
	jsonRow := func(name, body string) hostileRequest {
		return hostileRequest{name, false, "/batch", func(hostileRoute) []byte { return []byte(body) }}
	}
	good := fx.id
	many := make([]ids.PhotoID, wire.MaxStatusBatch+1)
	strs := make([]string, len(many))
	for i := range many {
		many[i], strs[i] = good, good.String()
	}
	oversized, _ := json.Marshal(&wire.StatusBatchRequest{IDs: strs})
	binRow := func(name, route string, body func(rt hostileRoute) []byte) hostileRequest {
		return hostileRequest{name, true, route, body}
	}
	claimRow := func(name string, edit func(req *wire.ClaimRequest)) hostileRequest {
		return binRow(name, "/v1/claim", func(hostileRoute) []byte {
			req := fx.claim()
			edit(req)
			return wire.EncodeClaimReq(nil, req)
		})
	}
	return []hostileRequest{
		jsonRow("not json", "))) not json ((("),
		jsonRow("wrong field", `{"identifiers":["x"]}`),
		jsonRow("empty list", `{"ids":[]}`),
		jsonRow("null list", `{"ids":null}`),
		jsonRow("unparseable id", `{"ids":["not-an-id"]}`),
		jsonRow("mixed good and bad ids", `{"ids":["`+good.String()+`","zzz"]}`),
		jsonRow("oversized batch", string(oversized)),
		jsonRow("megabyte of ids", `{"ids":["`+strings.Repeat("A", 2<<20)+`"]}`),
		binRow("empty", "", func(hostileRoute) []byte { return nil }),
		binRow("garbage", "", func(hostileRoute) []byte { return []byte("not a frame at all") }),
		binRow("truncated", "", func(rt hostileRoute) []byte { return rt.good(fx)[:10] }),
		binRow("crc-flip", "", func(rt hostileRoute) []byte {
			b := rt.good(fx)
			b[len(b)-1] ^= 1
			return b
		}),
		binRow("trailing", "", func(rt hostileRoute) []byte { return append(rt.good(fx), 0) }),
		binRow("wrong-kind", "", func(rt hostileRoute) []byte { return rt.other(fx) }),
		binRow("zero-count", "/batch", func(rt hostileRoute) []byte { return rt.batch(nil, nil) }),
		binRow("count-257", "/batch", func(rt hostileRoute) []byte { return rt.batch(nil, many) }),
		binRow("op-sig-63", "/v1/op", func(hostileRoute) []byte { return fx.op(ledger.OpRevoke, -1) }),
		binRow("op-sig-65", "/v1/op", func(hostileRoute) []byte { return fx.op(ledger.OpRevoke, 1) }),
		binRow("op-byte-0", "/v1/op", func(hostileRoute) []byte { return fx.op(0, 0) }),
		binRow("op-byte-3", "/v1/op", func(hostileRoute) []byte { return fx.op(3, 0) }),
		claimRow("claim-hash-31", func(req *wire.ClaimRequest) { req.ContentHash = req.ContentHash[:31] }),
		claimRow("claim-pub-33", func(req *wire.ClaimRequest) { req.PubKey = append(req.PubKey, 0) }),
		claimRow("claim-sig-63", func(req *wire.ClaimRequest) { req.HashSig = req.HashSig[:63] }),
		binRow("claim-unknown-flag", "/v1/claim", func(hostileRoute) []byte {
			b := claimOf(fx)
			b[len(wire.BeginFrame(nil))+1] |= 0x80
			return wire.FinishFrame(b, 0)
		}),
	}
}

// runHostileRequests posts every row of the table in the given codec to
// each of routes it is for — the ledger's routes and the proxy's batch
// route in front of it — and demands a 400 JSON error each time, with
// the ledger's state unchanged, nothing validated and nothing sent
// upstream.
func runHostileRequests(t *testing.T, binary bool, routes []hostileRoute) {
	l, err := ledger.New(ledger.Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	fx := &hostileFixture{fresh: sha256.Sum256([]byte("never claimed"))}
	if fx.pub, fx.owner, err = ed25519.GenerateKey(nil); err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256([]byte("claimed"))
	rc, err := l.Claim(h, fx.pub, ed25519.Sign(fx.owner, ledger.ClaimMsg(h)), false)
	if err != nil {
		t.Fatal(err)
	}
	fx.id = rc.ID
	before, err := l.StateHash()
	if err != nil {
		t.Fatal(err)
	}
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

	post := func(t *testing.T, rt hostileRoute, body []byte) (int, wire.Error, error) {
		t.Helper()
		base := ledgerSrv.URL
		if rt.path == "/v1/validate/batch" {
			base = proxySrv.URL
		}
		hr, err := http.NewRequest(http.MethodPost, base+rt.path, bytes.NewReader(body))
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
		defer r.Body.Close()
		var e wire.Error
		return r.StatusCode, e, json.NewDecoder(r.Body).Decode(&e)
	}
	for _, row := range hostileRequests(fx) {
		var matched []hostileRoute
		for _, rt := range routes {
			if row.binary == binary && strings.HasSuffix(rt.path, row.route) {
				matched = append(matched, rt)
			}
		}
		if len(matched) == 0 {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			for _, rt := range matched {
				status, e, err := post(t, rt, row.body(rt))
				if status != http.StatusBadRequest || err != nil || e.Code != http.StatusBadRequest {
					t.Errorf("%s: status %d, error body %+v (%v), want a 400 JSON error", rt.path, status, e, err)
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
	if after, err := l.StateHash(); err != nil || after != before {
		t.Errorf("ledger state changed: %x → %x (%v)", before, after, err)
	}
	if !binary {
		return
	}
	// The request every binary row was cut from goes through.
	for _, rt := range routes {
		if status, _, _ := post(t, rt, rt.good(fx)); status != http.StatusOK {
			t.Errorf("%s: the well-formed request got %d", rt.path, status)
		}
	}
}

// TestStatusBatchServerRejectsHostileBodies: both batch routes answer
// every malformed JSON body of the shared table with 400, instead of
// panicking or part-answering.
func TestStatusBatchServerRejectsHostileBodies(t *testing.T) {
	runHostileRequests(t, false, batchRoutes)
}

// TestServerRejectsBadBinaryBatch: both batch routes answer every
// malformed IRSW1 body of the shared table with 400 — a bad frame, a
// count outside 1–256, or the other route's request kind.
func TestServerRejectsBadBinaryBatch(t *testing.T) { runHostileRequests(t, true, batchRoutes) }

// TestWriteServerRejectsHostileBodies: /v1/op and /v1/claim answer
// every malformed IRSW1 body of the shared table with 400 and change
// nothing — a bad frame, the other route's kind, a signature, hash or
// key of the wrong size, an op byte that names no op, an unknown claim
// flag — though each was cut from a request the ledger would accept.
func TestWriteServerRejectsHostileBodies(t *testing.T) { runHostileRequests(t, true, writeRoutes) }
