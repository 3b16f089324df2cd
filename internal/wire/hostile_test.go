package wire

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
)

// hostileServer returns the given body for everything.
func hostileServer(t *testing.T, status int, contentType, body string, headers map[string]string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", contentType)
		for k, v := range headers {
			w.Header().Set(k, v)
		}
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// sizedClaim is a claim request whose fields have the sizes an IRSW1
// frame carries, so the client sends it.
func sizedClaim() *ClaimRequest {
	return &ClaimRequest{ContentHash: make([]byte, 32), PubKey: make([]byte, 32), HashSig: make([]byte, 64)}
}

func hostileID(t *testing.T) ids.PhotoID {
	t.Helper()
	id, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// The client must turn every malformed-server behaviour into an error,
// never a panic and never a fabricated success.
func TestClientAgainstGarbageJSON(t *testing.T) {
	srv := hostileServer(t, http.StatusOK, "application/json", `{"id": 42, "ts": "not-b64"`, nil)
	c := NewClient(srv.URL, "")
	if _, err := c.Claim(sizedClaim()); err == nil {
		t.Error("garbage claim response accepted")
	}
	if _, err := c.Status(hostileID(t)); err == nil {
		t.Error("garbage status response accepted")
	}
	if _, err := c.Keys(); err == nil {
		t.Error("garbage keys response accepted")
	}
	if _, _, err := c.FilterSync(0, nil); err == nil {
		t.Error("garbage filter response accepted")
	}
}

func TestClientAgainstWrongShapes(t *testing.T) {
	// Valid JSON, wrong semantics.
	srv := hostileServer(t, http.StatusOK, "application/json",
		`{"id":"notanid","ts":"aGVsbG8="}`, nil)
	c := NewClient(srv.URL, "")
	if _, err := c.Claim(sizedClaim()); err == nil {
		t.Error("bad id in claim response accepted")
	}

	// A well-formed IRSW1 claim answer whose timestamp token is not one.
	srv1 := hostileServer(t, http.StatusOK, ContentTypeBinary, string(claimFrame(hostileID(t), []byte("short"), nil)), nil)
	if rc, err := NewClient(srv1.URL, "").Claim(sizedClaim()); err == nil {
		t.Errorf("claim answer with a bad token accepted: %+v", rc)
	}

	// Keys with short key material.
	srv2 := hostileServer(t, http.StatusOK, "application/json",
		`{"ledger_id":1,"signing_key":"aGk=","timestamp_key":"aGk="}`, nil)
	if _, err := NewClient(srv2.URL, "").Keys(); err == nil {
		t.Error("short keys accepted")
	}

	// A well-formed one-proof IRSW1 status batch frame carrying the
	// tail of another id's proof: it decodes as a proof of the id asked
	// about, which its signature refutes.
	l, err := ledger.New(ledger.Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	other, err := l.Status(hostileID(t))
	if err != nil {
		t.Fatal(err)
	}
	srv3 := hostileServer(t, http.StatusOK, ContentTypeBinary, string(EncodeStatusBatchResp(nil, []*ledger.StatusProof{other})), nil)
	asked := hostileID(t)
	if p, err := NewClient(srv3.URL, "").Status(asked); err != nil || p.ID != asked ||
		ledger.VerifyProof(l.SigningKey(), p, time.Time{}, 0) == nil {
		t.Errorf("another id's proof, asked for %s: %+v (%v) verifies", asked, p, err)
	}
}

func TestClientAgainstMissingEpochHeader(t *testing.T) {
	srv := hostileServer(t, http.StatusOK, "application/octet-stream", "IRSBF1xxxx", nil)
	c := NewClient(srv.URL, "")
	if _, _, err := c.FilterSync(0, nil); err == nil {
		t.Error("cold sync without epoch header accepted")
	}
	if _, _, err := c.FilterSync(1, nil); err == nil {
		t.Error("sync without epoch header accepted")
	}
}

func TestClientAgainstHTMLErrorPage(t *testing.T) {
	// A misconfigured reverse proxy answering 502 with HTML.
	srv := hostileServer(t, http.StatusBadGateway, "text/html", "<html>bad gateway</html>", nil)
	c := NewClient(srv.URL, "")
	err := c.Apply(hostileID(t), ledger.OpRevoke, 1, make([]byte, 64))
	if err == nil {
		t.Fatal("502 HTML accepted")
	}
	if ErrStatus(err) != http.StatusBadGateway {
		t.Errorf("status %d, want 502", ErrStatus(err))
	}
}

func TestClientAgainstOversizedBody(t *testing.T) {
	// A body beyond the client's read limit must not OOM; the truncated
	// JSON then fails to parse.
	big := make([]byte, 2<<20)
	for i := range big {
		big[i] = 'a'
	}
	srv := hostileServer(t, http.StatusOK, "application/json", `{"state":"`+string(big)+`"}`, nil)
	c := NewClient(srv.URL, "")
	if _, err := c.Status(hostileID(t)); err == nil {
		t.Error("oversized body accepted")
	}
}
