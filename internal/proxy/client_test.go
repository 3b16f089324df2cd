package proxy

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

// codecStack is a full serving path — fixed-clock ledger HTTP server,
// proxy HTTP server in front of it — with one claimed-active and one
// revoked-at-birth photo and the filter refreshed.
type codecStack struct {
	ledger   *ledger.Ledger
	proxySrv *httptest.Server
	active   ids.PhotoID
	revoked  ids.PhotoID
}

func newCodecStack(t *testing.T) *codecStack {
	t.Helper()
	l, err := ledger.New(ledger.Config{ID: 3, Clock: func() time.Time {
		return time.Unix(1700000000, 0).UTC()
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ledgerSrv := httptest.NewServer(wire.NewServer(l, ""))
	t.Cleanup(ledgerSrv.Close)

	dir := wire.NewDirectory()
	dir.Register(3, wire.NewClient(ledgerSrv.URL, ""))
	proxySrv := httptest.NewServer(NewServer(Config{UseFilter: true, CacheCapacity: 64}, dir))
	t.Cleanup(proxySrv.Close)

	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	claim := func(content string, revoked bool) ids.PhotoID {
		h := sha256.Sum256([]byte(content))
		r, err := l.Claim(h, pub, ed25519.Sign(priv, ledger.ClaimMsg(h)), revoked)
		if err != nil {
			t.Fatal(err)
		}
		return r.ID
	}
	st := &codecStack{
		ledger:   l,
		proxySrv: proxySrv,
		active:   claim("active", false),
		revoked:  claim("revoked", true),
	}
	if _, err := l.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(proxySrv.URL+"/v1/refresh", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return st
}

// jsonValidateBatch asks the proxy for a page the way the browser
// extension example does: a JSON body, no IRSW1 in Accept.
func jsonValidateBatch(t *testing.T, base string, batch []ids.PhotoID) []ValidateResponse {
	t.Helper()
	req := &ValidateBatchRequest{}
	for _, id := range batch {
		req.IDs = append(req.IDs, id.String())
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(base+"/v1/validate/batch", wire.ContentTypeJSON, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK || !strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentTypeJSON) {
		t.Fatalf("JSON batch: status %d, content type %q", r.StatusCode, r.Header.Get("Content-Type"))
	}
	var resp ValidateBatchResponse
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(batch) {
		t.Fatalf("JSON batch: %d results for %d ids", len(resp.Results), len(batch))
	}
	return resp.Results
}

// sameAnswer reports whether the proxy's JSON answer j and the IRSW1
// client's answer b carry the same decision and byte-identical proofs.
func sameAnswer(j ValidateResponse, b ClientResult) bool {
	return j.State == b.State.String() && j.Source == b.Source.String() &&
		j.Displayable == b.Displayable && bytes.Equal(j.Proof, b.Proof)
}

// TestProxyClientCodecsAgree pins the proxy's surviving JSON path
// against the IRSW1 client: on a fixed-clock ledger, the browser's JSON
// answer and the client's answer carry identical decisions and
// byte-identical proofs, for the page round and for a single image
// (the JSON-only GET against a one-id IRSW1 batch).
// The proxy's upstream hop to the ledger speaks IRSW1, the only
// encoding a wire.Client sends.
func TestProxyClientCodecsAgree(t *testing.T) {
	t.Run("upstream=binary", testProxyClientCodecsAgree)
}

func testProxyClientCodecsAgree(t *testing.T) {
	st := newCodecStack(t)
	batch := []ids.PhotoID{st.active, st.revoked, st.active}
	c := NewClient(st.proxySrv.URL)

	// Two rounds: the first resolves the revoked photo at the ledger and
	// caches it, so in the second both encodings answer from the cache.
	var jres []ValidateResponse
	var bres []ClientResult
	var err error
	for round := 0; round < 2; round++ {
		jres = jsonValidateBatch(t, st.proxySrv.URL, batch)
		if bres, err = c.ValidateBatch(batch); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	for i := range batch {
		if !sameAnswer(jres[i], bres[i]) {
			t.Errorf("result %d: JSON %+v vs IRSW1 %+v", i, jres[i], bres[i])
		}
	}
	// The proofs of one answer share one buffer; each is clipped to its
	// own bytes, so a caller appending to one cannot write into the next.
	for i := range bres {
		if cap(bres[i].Proof) != len(bres[i].Proof) {
			t.Errorf("result %d: proof has %d spare bytes of the shared buffer", i, cap(bres[i].Proof)-len(bres[i].Proof))
		}
	}
	if bres[0].State != ledger.StateActive || !bres[0].Displayable {
		t.Errorf("active photo answered %+v", bres[0])
	}
	if bres[1].State == ledger.StateActive || bres[1].Displayable || bres[1].Proof == nil {
		t.Errorf("revoked photo answered %+v", bres[1])
	}

	// The single-image GET answers JSON even to a request asking for
	// IRSW1, and agrees with a one-id IRSW1 batch.
	hr, err := http.NewRequest(http.MethodGet, st.proxySrv.URL+"/v1/validate?id="+st.revoked.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Accept", wire.ContentTypeBinary)
	r, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	var jone ValidateResponse
	err = json.NewDecoder(r.Body).Decode(&jone)
	r.Body.Close()
	if err != nil || !strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentTypeJSON) {
		t.Fatalf("single validate: content type %q, %v", r.Header.Get("Content-Type"), err)
	}
	one, err := c.ValidateBatch([]ids.PhotoID{st.revoked})
	if err != nil {
		t.Fatalf("one-id batch: %v", err)
	}
	if !sameAnswer(jone, one[0]) {
		t.Errorf("single validate: JSON %+v vs IRSW1 %+v", jone, one[0])
	}
}

// TestProxyClientFirstRequestIsIRSW1: a fresh client's first page round
// already sends an IRSW1 body and asks for IRSW1 only.
func TestProxyClientFirstRequestIsIRSW1(t *testing.T) {
	st := newCodecStack(t)
	var mu sync.Mutex
	var contentType, accept []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		contentType = append(contentType, r.Header.Get("Content-Type"))
		accept = append(accept, r.Header.Get("Accept"))
		mu.Unlock()
		st.proxySrv.Config.Handler.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	for _, batch := range [][]ids.PhotoID{{st.active, st.revoked}, {st.revoked}} {
		if _, err := c.ValidateBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if contentType[0] != wire.ContentTypeBinary {
		t.Errorf("first ValidateBatch sent Content-Type %q", contentType[0])
	}
	for i, a := range accept {
		if a != wire.ContentTypeBinary {
			t.Errorf("request %d sent Accept %q, want %q", i, a, wire.ContentTypeBinary)
		}
	}
}

// TestProxyClientRefusesJSONAnswer: a 2xx JSON answer — what the proxy
// gives a request without IRSW1 in its Accept — is an error with no
// results, not a downgrade.
func TestProxyClientRefusesJSONAnswer(t *testing.T) {
	st := newCodecStack(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		st.proxySrv.Config.Handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)

	if res, err := c.ValidateBatch([]ids.PhotoID{st.active, st.revoked}); err == nil || res != nil {
		t.Errorf("JSON batch answer accepted: %+v, %v", res, err)
	}
	// An error status still surfaces as the proxy's protocol error.
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wire.WriteError(w, http.StatusBadGateway, "upstream down")
	}))
	defer down.Close()
	_, err := NewClient(down.URL).ValidateBatch([]ids.PhotoID{st.active})
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != http.StatusBadGateway {
		t.Errorf("error status: %v, want the proxy's 502", err)
	}
}

// TestProxyServerSendsNoWireAdvertisement: no proxy response — JSON,
// IRSW1 or error — carries an X-IRS-Wire header.
func TestProxyServerSendsNoWireAdvertisement(t *testing.T) {
	st := newCodecStack(t)
	base := st.proxySrv.URL
	frame := wire.EncodeValidateBatchReq(nil, []ids.PhotoID{st.active, st.revoked})
	for name, req := range map[string]func() (*http.Response, error){
		"json batch": func() (*http.Response, error) {
			return http.Post(base+"/v1/validate/batch", wire.ContentTypeJSON,
				strings.NewReader(`{"ids":["`+st.active.String()+`"]}`))
		},
		"binary batch": func() (*http.Response, error) {
			hr, err := http.NewRequest(http.MethodPost, base+"/v1/validate/batch", bytes.NewReader(frame))
			if err != nil {
				return nil, err
			}
			hr.Header.Set("Content-Type", wire.ContentTypeBinary)
			hr.Header.Set("Accept", wire.ContentTypeBinary)
			return http.DefaultClient.Do(hr)
		},
		"json validate": func() (*http.Response, error) { return http.Get(base + "/v1/validate?id=" + st.active.String()) },
		"bad request":   func() (*http.Response, error) { return http.Get(base + "/v1/validate?id=bogus") },
		"stats":         func() (*http.Response, error) { return http.Get(base + "/v1/stats") },
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
