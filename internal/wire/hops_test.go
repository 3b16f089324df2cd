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
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/proxy"
	"irs/internal/tsa"
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

// batchAnswer builds a well-formed one-proof status batch answer whose
// tail is the given state byte and zeros: frame-valid, and proof-invalid
// when state names no state.
func batchAnswer(state byte) []byte {
	b := append(wire.BeginFrame(nil), wire.MsgStatusBatchResp, 1, state)
	b = append(b, make([]byte, ledger.ProofTailSize-1)...)
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
	whole := batchAnswer(9)
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
		"retired-status-kind": wire.FinishFrame(append(append(wire.BeginFrame(nil), 's'),
			make([]byte, ledger.MarshaledProofSize)...), 0),
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

// servingStack is two fixed-clock ledgers (ids 1 and 2) behind their
// wire.Servers and a caching proxy.Server in front of both, with no
// filter, so every id resolves at a ledger or from the cache.
type servingStack struct {
	ledgers map[ids.LedgerID]*ledger.Ledger
	urls    map[ids.LedgerID]string
	proxy   string
}

func newServingStack(t *testing.T) *servingStack {
	t.Helper()
	st := &servingStack{ledgers: map[ids.LedgerID]*ledger.Ledger{}, urls: map[ids.LedgerID]string{}}
	dir := wire.NewDirectory()
	for _, lid := range []ids.LedgerID{1, 2} {
		l, err := ledger.New(ledger.Config{ID: lid, Clock: func() time.Time { return time.Unix(1700000000, 0).UTC() }})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		srv := httptest.NewServer(wire.NewServer(l, ""))
		t.Cleanup(srv.Close)
		st.ledgers[lid], st.urls[lid] = l, srv.URL
		dir.Register(lid, wire.NewClient(srv.URL, ""))
	}
	px := httptest.NewServer(proxy.NewServer(proxy.Config{CacheCapacity: 64}, dir))
	t.Cleanup(px.Close)
	st.proxy = px.URL
	return st
}

// postJSON posts body as JSON to url, the way a browser asks, and
// decodes the JSON answer into v.
func postJSON(t *testing.T, url string, body, v any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, wire.ContentTypeJSON, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, r.StatusCode)
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestIRSW1ProofsMatchLedgerAndJSON: every proof decoded on either hop
// — wire.Client's StatusBatch and Claim receipts, proxy.Client's
// results — is byte for byte the ledger's own Marshal form, verifies
// under that ledger's SigningKey, and equals the JSON answer for the
// same ids, though the IRSW1 frames carry each proof without its id.
func TestIRSW1ProofsMatchLedgerAndJSON(t *testing.T) {
	st := newServingStack(t)
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	// ledgerProof checks raw, the proof of id an IRSW1 client decoded.
	ledgerProof := func(who string, id ids.PhotoID, raw []byte) {
		t.Helper()
		l := st.ledgers[id.Ledger]
		want, err := l.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ledger.UnmarshalProof(raw)
		if err != nil || !bytes.Equal(raw, want.Marshal()) || ledger.VerifyProof(l.SigningKey(), p, time.Time{}, 0) != nil {
			t.Errorf("%s: proof of %s is not the ledger's (%v)", who, id, err)
		}
	}
	var page []ids.PhotoID
	for i := 0; i < 6; i++ {
		lid := ids.LedgerID(1 + i%3/2) // ledgers 1, 1, 2, 1, 1, 2
		h := sha256.Sum256([]byte{byte(i)})
		rc, err := wire.NewClient(st.urls[lid], "").Claim(&wire.ClaimRequest{ContentHash: h[:], PubKey: pub,
			HashSig: ed25519.Sign(priv, ledger.ClaimMsg(h)), RevokedAtBirth: i%2 == 1})
		if err != nil {
			t.Fatal(err)
		}
		if rc.Proof == nil {
			t.Fatalf("claim %d: no proof", i)
		}
		ledgerProof("wire.Client.Claim", rc.ID, rc.Proof.Marshal())
		page = append(page, rc.ID)
	}
	page = append(page, page[0]) // a repeat, and an id no ledger issued
	page = append(page, ids.PhotoID{Ledger: 2, Rec: [12]byte{9}})

	for lid, url := range st.urls {
		var batch []ids.PhotoID
		req := &wire.StatusBatchRequest{}
		for _, id := range page {
			if id.Ledger == lid {
				batch = append(batch, id)
				req.IDs = append(req.IDs, id.String())
			}
		}
		proofs, err := wire.NewClient(url, "").StatusBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		var jr wire.StatusBatchResponse
		postJSON(t, url+"/v1/status/batch", req, &jr)
		for i, p := range proofs {
			ledgerProof("wire.Client.StatusBatch", batch[i], p.Marshal())
			if !bytes.Equal(jr.Proofs[i], p.Marshal()) {
				t.Errorf("ledger %d proof %d: JSON and IRSW1 differ", lid, i)
			}
		}
	}

	c := proxy.NewClientHTTP(st.proxy, wire.CodecBinary, http.DefaultClient)
	req := &proxy.ValidateBatchRequest{}
	for _, id := range page {
		req.IDs = append(req.IDs, id.String())
	}
	// The ledgers answer the first round and the cache the second, which
	// the JSON answer then shares.
	for round := 0; round < 2; round++ {
		res, err := c.ValidateBatch(page)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			ledgerProof("proxy.Client.ValidateBatch", page[i], r.Proof)
		}
		if round == 0 {
			continue
		}
		var jr proxy.ValidateBatchResponse
		postJSON(t, st.proxy+"/v1/validate/batch", req, &jr)
		for i, r := range res {
			j := jr.Results[i]
			if j.State != r.State.String() || j.Source != r.Source.String() || j.Displayable != r.Displayable ||
				!bytes.Equal(j.Proof, r.Proof) {
				t.Errorf("round %d result %d: JSON %+v, IRSW1 %+v", round, i, j, r)
			}
		}
	}
}

// TestMisorderedLedgerAnswerRefutedOnlyBySignature pins what the id-less
// status answer gives up: a ledger, or anything between it and the
// proxy, that swaps two answers of one batch is caught at no hop. The
// proxy caches each id with its neighbour's state, here serving a
// revoked photo as displayable, from the ledger and then from its
// cache; only the proofs' signatures, which nothing on the serving path
// checks, refute it.
func TestMisorderedLedgerAnswerRefutedOnlyBySignature(t *testing.T) {
	l, err := ledger.New(ledger.Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	inner := httptest.NewServer(wire.NewServer(l, ""))
	defer inner.Close()
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	var page []ids.PhotoID // page[0] active, page[1] revoked at birth
	for i := range 2 {
		h := sha256.Sum256([]byte{byte(i)})
		rc, err := wire.NewClient(inner.URL, "").Claim(&wire.ClaimRequest{ContentHash: h[:], PubKey: pub,
			HashSig: ed25519.Sign(priv, ledger.ClaimMsg(h)), RevokedAtBirth: i == 1})
		if err != nil {
			t.Fatal(err)
		}
		page = append(page, rc.ID)
	}
	// swap passes every request to the ledger and reverses the proofs
	// of its status answer.
	swap := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.Config.Handler.ServeHTTP(rec, r)
		_, payload, err := wire.DecodeMsg(rec.Body.Bytes(), wire.MaxFramePayload)
		if err != nil {
			t.Error(err)
			return
		}
		var proofs []*ledger.StatusProof
		if _, err := wire.DecodeStatusBatchResp(payload, func(_ int, tail []byte) error {
			p := new(ledger.StatusProof)
			proofs = append(proofs, p)
			return p.UnmarshalTail(ids.PhotoID{}, tail)
		}); err != nil {
			t.Error(err)
			return
		}
		slices.Reverse(proofs)
		w.Header().Set("Content-Type", wire.ContentTypeBinary)
		w.Write(wire.EncodeStatusBatchResp(nil, proofs))
	}))
	defer swap.Close()
	dir := wire.NewDirectory()
	dir.Register(1, wire.NewClient(swap.URL, ""))
	px := httptest.NewServer(proxy.NewServer(proxy.Config{CacheCapacity: 64}, dir))
	defer px.Close()

	c := proxy.NewClientHTTP(px.URL, wire.CodecBinary, http.DefaultClient)
	for _, source := range []proxy.Source{proxy.SourceLedger, proxy.SourceCache} {
		res, err := c.ValidateBatch(page)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			neighbour, err := l.Status(page[1-i])
			if err != nil {
				t.Fatal(err)
			}
			p, err := ledger.UnmarshalProof(r.Proof)
			if err != nil || p.ID != page[i] || r.State != neighbour.State || r.Source != source ||
				r.Displayable != (i == 1) {
				t.Errorf("%s answer %d: %+v (%v), want the state of its neighbour", source, i, r, err)
			} else if ledger.VerifyProof(l.SigningKey(), p, time.Time{}, 0) == nil {
				t.Errorf("%s answer %d: the misordered proof verifies", source, i)
			}
		}
	}
}

// TestRetiredServingKindsRefused: a peer of the revision before the
// compact serving frames meets errors, never a misparse. Its id-batch
// requests get a 400 from the ledger and the proxy, and its answers are
// a TransportError at wire.Client and proxy.Client.
func TestRetiredServingKindsRefused(t *testing.T) {
	st := newServingStack(t)
	id := ids.PhotoID{Ledger: 1, Rec: [12]byte{1}}
	old := wire.RetiredFrames(id, &ledger.StatusProof{ID: id, State: ledger.StateActive},
		&tsa.Token{Sig: make([]byte, 64)})
	for _, k := range []string{"B", "W"} {
		for _, url := range []string{st.urls[1] + "/v1/status/batch", st.proxy + "/v1/validate/batch"} {
			hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(old[k]))
			if err != nil {
				t.Fatal(err)
			}
			hr.Header.Set("Content-Type", wire.ContentTypeBinary)
			hr.Header.Set("Accept", wire.ContentTypeBinary)
			r, err := http.DefaultClient.Do(hr)
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if r.StatusCode != http.StatusBadRequest {
				t.Errorf("%q request to %s: status %d, want 400", k, url, r.StatusCode)
			}
		}
	}
	for _, k := range []string{"b", "w", "c"} {
		url, _ := countingServer(t, http.StatusOK, wire.ContentTypeBinary, old[k])
		ps, err := wire.NewClient(url, "").StatusBatch([]ids.PhotoID{id})
		if ps != nil {
			t.Errorf("%q answer: proofs alongside error", k)
		}
		isTransport(t, "wire.Client.StatusBatch", err)
		res, err := proxy.NewClientHTTP(url, wire.CodecBinary, http.DefaultClient).ValidateBatch([]ids.PhotoID{id})
		if res != nil {
			t.Errorf("%q answer: results alongside error", k)
		}
		isTransport(t, "proxy.Client.ValidateBatch", err)
		rc, err := wire.NewClient(url, "").Claim(&wire.ClaimRequest{ContentHash: make([]byte, 32),
			PubKey: make([]byte, 32), HashSig: make([]byte, 64)})
		if rc.Timestamp != nil {
			t.Errorf("%q answer: receipt alongside error", k)
		}
		isTransport(t, "wire.Client.Claim", err)
	}
}
