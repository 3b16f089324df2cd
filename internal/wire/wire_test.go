package wire

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"irs/internal/bloom"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/tsa"
)

type testEnv struct {
	ledger *ledger.Ledger
	server *httptest.Server
	client *Client
}

func newEnv(t *testing.T, cfg ledger.Config, adminToken string) *testEnv {
	t.Helper()
	if cfg.ID == 0 {
		cfg.ID = 7
	}
	l, err := ledger.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(l, adminToken))
	t.Cleanup(func() {
		srv.Close()
		l.Close()
	})
	return &testEnv{ledger: l, server: srv, client: NewClient(srv.URL, adminToken)}
}

type keypair struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

func newKeypair(t testing.TB) keypair {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return keypair{pub, priv}
}

func (k keypair) claimVia(t *testing.T, c *Client, content string, revoked bool) ledger.Receipt {
	t.Helper()
	h := sha256.Sum256([]byte(content))
	r, err := c.Claim(&ClaimRequest{
		ContentHash:    h[:],
		PubKey:         k.pub,
		HashSig:        ed25519.Sign(k.priv, ledger.ClaimMsg(h)),
		RevokedAtBirth: revoked,
	})
	if err != nil {
		t.Fatalf("claim over http: %v", err)
	}
	return r
}

func TestClaimStatusOverHTTP(t *testing.T) {
	env := newEnv(t, ledger.Config{}, "")
	k := newKeypair(t)
	r := k.claimVia(t, env.client, "wire photo", false)
	if r.ID.Ledger != 7 {
		t.Errorf("ledger id %d", r.ID.Ledger)
	}

	keys, err := env.client.Keys()
	if err != nil {
		t.Fatal(err)
	}
	// Timestamp token must verify against the published TSA key and
	// cover the photo's content hash (the ledger stamps the hash itself).
	h := sha256.Sum256([]byte("wire photo"))
	if err := tsa.Verify(keys.TimestampKey, r.Timestamp); err != nil {
		t.Errorf("timestamp token: %v", err)
	}
	if r.Timestamp.Digest != h {
		t.Error("timestamp token digest is not the content hash")
	}

	proof, err := env.client.Status(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if proof.State != ledger.StateActive {
		t.Errorf("state %v", proof.State)
	}
	if err := ledger.VerifyProof(keys.SigningKey, proof, time.Now(), time.Minute); err != nil {
		t.Errorf("proof verify: %v", err)
	}
}

func TestRevokeOverHTTP(t *testing.T) {
	env := newEnv(t, ledger.Config{}, "")
	k := newKeypair(t)
	r := k.claimVia(t, env.client, "to revoke", false)

	seq, err := env.client.Seq(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 {
		t.Errorf("initial seq %d", seq)
	}
	sig := ed25519.Sign(k.priv, ledger.OpMsg(r.ID, ledger.OpRevoke, seq+1))
	if err := env.client.Apply(r.ID, ledger.OpRevoke, seq+1, sig); err != nil {
		t.Fatal(err)
	}
	proof, err := env.client.Status(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if proof.State != ledger.StateRevoked {
		t.Errorf("state %v after revoke", proof.State)
	}
	if proof.Displayable() {
		t.Error("revoked photo displayable")
	}
}

func TestWrongKeyRejectedOverHTTP(t *testing.T) {
	env := newEnv(t, ledger.Config{}, "")
	k := newKeypair(t)
	attacker := newKeypair(t)
	r := k.claimVia(t, env.client, "guarded", false)
	sig := ed25519.Sign(attacker.priv, ledger.OpMsg(r.ID, ledger.OpRevoke, 1))
	err := env.client.Apply(r.ID, ledger.OpRevoke, 1, sig)
	if ErrStatus(err) != http.StatusForbidden {
		t.Errorf("got %v (status %d), want 403", err, ErrStatus(err))
	}
}

func TestStatusUnknownID(t *testing.T) {
	env := newEnv(t, ledger.Config{}, "")
	id, err := ids.New(7)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := env.client.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if proof.State != ledger.StateUnknown {
		t.Errorf("state %v", proof.State)
	}
}

func TestBadRequests(t *testing.T) {
	env := newEnv(t, ledger.Config{}, "")
	// With epoch 1 published, only a missing route can 404 a filter GET.
	if _, err := env.ledger.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad id", http.MethodGet, "/v1/status?id=notanid", "", http.StatusBadRequest},
		{"missing id", http.MethodGet, "/v1/status", "", http.StatusBadRequest},
		{"junk claim", http.MethodPost, "/v1/claim", "{", http.StatusBadRequest},
		{"short hash", http.MethodPost, "/v1/claim", `{"hash":"aGk=","pub":"","sig":""}`, http.StatusBadRequest},
		{"bad op value", http.MethodPost, "/v1/op", `{"id":"x","op":9,"seq":1,"sig":""}`, http.StatusBadRequest},
		{"unknown fields", http.MethodPost, "/v1/op", `{"bogus":true}`, http.StatusBadRequest},
		{"sync no from", http.MethodGet, "/v1/filter/sync", "", http.StatusBadRequest},
		{"removed delta route", http.MethodGet, "/v1/filter/delta?from=1", "", http.StatusNotFound},
		{"removed snapshot route", http.MethodGet, "/v1/filter", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, env.server.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestFilterOverHTTP: the cold fetch is FilterSync(0, nil) — 404 before
// the first build, then a standalone snapshot of the latest epoch.
func TestFilterOverHTTP(t *testing.T) {
	env := newEnv(t, ledger.Config{}, "")
	k := newKeypair(t)
	// No snapshot yet.
	if _, _, err := env.client.FilterSync(0, nil); ErrStatus(err) != http.StatusNotFound {
		t.Errorf("pre-snapshot filter fetch: %v", err)
	}
	r := k.claimVia(t, env.client, "filtered", true) // revoked at birth
	if _, err := env.ledger.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	payload, epoch, err := env.client.FilterSync(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Errorf("epoch %d", epoch)
	}
	f, err := bloom.ApplyUpdate(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Test(ledger.FilterKey(r.ID)) {
		t.Error("revoked id missing from downloaded filter")
	}
}

func TestFilterSyncOverHTTP(t *testing.T) {
	env := newEnv(t, ledger.Config{}, "")
	k := newKeypair(t)
	if _, _, err := env.client.FilterSync(0, nil); ErrStatus(err) != http.StatusNotFound {
		t.Errorf("pre-snapshot sync: %v", err)
	}
	r := k.claimVia(t, env.client, "sync1", true)
	if _, err := env.ledger.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	// Cold start: no base at all → full snapshot.
	payload, epoch, err := env.client.FilterSync(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Errorf("epoch %d", epoch)
	}
	f, err := bloom.ApplyUpdate(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Test(ledger.FilterKey(r.ID)) {
		t.Error("revoked id missing from synced filter")
	}

	// Current holder: empty payload.
	h := f.Hash()
	payload, latest, err := env.client.FilterSync(epoch, h[:])
	if err != nil {
		t.Fatal(err)
	}
	if payload != nil || latest != epoch {
		t.Errorf("up-to-date sync returned %d bytes, latest %d", len(payload), latest)
	}

	// New epoch: valid base gets an incremental payload that lands on
	// the latest filter.
	k2 := newKeypair(t)
	r2 := k2.claimVia(t, env.client, "sync2", true)
	if _, err := env.ledger.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	payload, latest, err = env.client.FilterSync(epoch, h[:])
	if err != nil {
		t.Fatal(err)
	}
	if latest != 2 {
		t.Errorf("latest %d", latest)
	}
	f2, err := bloom.ApplyUpdate(f, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !f2.Test(ledger.FilterKey(r2.ID)) {
		t.Error("sync payload did not carry the new revocation")
	}

	// Holder lying about (or confused over) its base: server resolves
	// with a standalone snapshot rather than a corrupting delta.
	payload, _, err = env.client.FilterSync(epoch, make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bloom.ApplyUpdate(nil, payload); err != nil {
		t.Fatalf("mismatched base should yield a snapshot: %v", err)
	}
}

func TestAdminRevoke(t *testing.T) {
	env := newEnv(t, ledger.Config{}, "sekrit")
	k := newKeypair(t)
	r := k.claimVia(t, env.client, "contested", false)

	// Wrong token.
	bad := NewClient(env.server.URL, "wrong")
	if err := bad.PermanentRevoke(r.ID); ErrStatus(err) != http.StatusUnauthorized {
		t.Errorf("wrong token: %v", err)
	}
	// Correct token.
	if err := env.client.PermanentRevoke(r.ID); err != nil {
		t.Fatal(err)
	}
	proof, err := env.client.Status(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if proof.State != ledger.StatePermanentlyRevoked {
		t.Errorf("state %v", proof.State)
	}
}

func TestAdminDisabled(t *testing.T) {
	env := newEnv(t, ledger.Config{}, "")
	k := newKeypair(t)
	r := k.claimVia(t, env.client, "x", false)
	c := NewClient(env.server.URL, "anything")
	if err := c.PermanentRevoke(r.ID); ErrStatus(err) != http.StatusForbidden {
		t.Errorf("disabled admin: %v", err)
	}
}

func TestDirectoryRouting(t *testing.T) {
	envA := newEnv(t, ledger.Config{ID: 10}, "")
	envB := newEnv(t, ledger.Config{ID: 20}, "")
	d := NewDirectory()
	d.Register(10, envA.client)
	d.Register(20, envB.client)

	k := newKeypair(t)
	rA := k.claimVia(t, envA.client, "on A", false)
	rB := k.claimVia(t, envB.client, "on B", true)

	cA, err := d.For(rA.ID)
	if err != nil {
		t.Fatal(err)
	}
	pA, err := cA.Status(rA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pA.State != ledger.StateActive {
		t.Errorf("A state %v", pA.State)
	}
	cB, err := d.For(rB.ID)
	if err != nil {
		t.Fatal(err)
	}
	pB, err := cB.Status(rB.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pB.State != ledger.StateRevoked {
		t.Errorf("B state %v", pB.State)
	}
	unknown, err := ids.New(99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.For(unknown); err == nil {
		t.Error("unregistered ledger routed")
	}
	if len(d.All()) != 2 {
		t.Errorf("All() = %d entries", len(d.All()))
	}
}

func TestErrStatusNonWireError(t *testing.T) {
	if ErrStatus(nil) != 0 {
		t.Error("nil should map to 0")
	}
	if ErrStatus(http.ErrServerClosed) != 0 {
		t.Error("non-wire error should map to 0")
	}
}

// TestClaimCarriesFirstProof: through every Service form — in process,
// over HTTP, behind the retry layer — a claim's receipt carries the
// proof Status returns for the new identifier in the same second, born
// revoked when the claim was.
func TestClaimCarriesFirstProof(t *testing.T) {
	env := newEnv(t, ledger.Config{Clock: fixedClock}, "")
	k := newKeypair(t)
	services := map[string]Service{
		"loopback": &Loopback{L: env.ledger},
		"client":   env.client,
		"retry":    NewRetryClient(env.client, RetryConfig{}),
	}
	for name, svc := range services {
		for _, revoked := range []bool{false, true} {
			h := sha256.Sum256([]byte(fmt.Sprintf("first proof %s %v", name, revoked)))
			r, err := svc.Claim(&ClaimRequest{
				ContentHash:    h[:],
				PubKey:         k.pub,
				HashSig:        ed25519.Sign(k.priv, ledger.ClaimMsg(h)),
				RevokedAtBirth: revoked,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := ledger.StateActive
			if revoked {
				want = ledger.StateRevoked
			}
			if r.Proof == nil || r.Proof.ID != r.ID || r.Proof.State != want {
				t.Fatalf("%s revoked=%v: receipt proof %+v", name, revoked, r.Proof)
			}
			if err := ledger.VerifyProof(env.ledger.SigningKey(), r.Proof, fixedClock(), time.Minute); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			p, err := svc.Status(r.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p.Marshal(), r.Proof.Marshal()) {
				t.Errorf("%s revoked=%v: Status differs from the claim's proof", name, revoked)
			}
		}
	}
}

// TestClaimProofMixedVersions pins both directions of the optional
// proof field. A ledger that predates it (or sends one that is
// malformed, or attests another claim) costs the client the proof and
// nothing else: the receipt survives, Proof is nil, and the caller asks
// Status. A client that predates it decodes today's answer unharmed.
func TestClaimProofMixedVersions(t *testing.T) {
	l, err := ledger.New(ledger.Config{ID: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	inner := NewServer(l, "")
	other, err := l.Status(ids.PhotoID{Ledger: 7})
	if err != nil {
		t.Fatal(err)
	}
	var rewrite func(*ClaimResponse)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/claim" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var resp ClaimResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Errorf("claim answer: %v", err)
		}
		rewrite(&resp)
		WriteJSON(w, rec.Code, &resp)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, "")
	k := newKeypair(t)

	for name, fn := range map[string]func(*ClaimResponse){
		"omitted":       func(r *ClaimResponse) { r.Proof = nil },
		"malformed":     func(r *ClaimResponse) { r.Proof = r.Proof[:len(r.Proof)-1] },
		"another claim": func(r *ClaimResponse) { r.Proof = other.Marshal() },
	} {
		rewrite = fn
		r := k.claimVia(t, c, "mixed "+name, false)
		if r.Proof != nil {
			t.Errorf("proof %s: client kept %+v", name, r.Proof)
		}
		if r.Timestamp == nil {
			t.Errorf("proof %s: receipt lost its timestamp", name)
		}
		if p, err := c.Status(r.ID); err != nil || p.State != ledger.StateActive {
			t.Errorf("proof %s: fallback Status: %+v %v", name, p, err)
		}
	}

	// An old client: the answer's shape before the field, decoded the
	// way Client decodes every answer.
	rewrite = func(*ClaimResponse) {}
	h := sha256.Sum256([]byte("old client"))
	body, err := json.Marshal(&ClaimRequest{ContentHash: h[:], PubKey: k.pub, HashSig: ed25519.Sign(k.priv, ledger.ClaimMsg(h))})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(srv.URL+"/v1/claim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		ID        string `json:"id"`
		Timestamp []byte `json:"ts"`
	}
	if err := decodeResponse(hr, &old); err != nil {
		t.Fatalf("old client: %v", err)
	}
	if _, err := ids.Parse(old.ID); err != nil || len(old.Timestamp) == 0 {
		t.Errorf("old client decoded %+v (%v)", old, err)
	}
}
