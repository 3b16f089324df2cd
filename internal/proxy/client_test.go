package proxy

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

// codecStack is a full serving path — ledger HTTP server, proxy HTTP
// server in front of it — with one claimed-active and one
// revoked-at-birth photo and the filter refreshed.
type codecStack struct {
	ledger   *ledger.Ledger
	proxySrv *httptest.Server
	active   ids.PhotoID
	revoked  ids.PhotoID
}

func newCodecStack(t *testing.T, upstream wire.Codec) *codecStack {
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
	dir.Register(3, wire.NewClientOpts(ledgerSrv.URL, "", wire.ClientOptions{Codec: upstream}))
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

// TestProxyClientCodecsAgree drives the browser round through both
// codecs against the same proxy (itself talking upstream over each
// codec in turn) and requires identical decisions and byte-identical
// proofs — the end-to-end form of the bench's identical-results gate.
func TestProxyClientCodecsAgree(t *testing.T) {
	for _, upstream := range []wire.Codec{wire.CodecJSON, wire.CodecBinary} {
		t.Run("upstream="+upstream.String(), func(t *testing.T) {
			st := newCodecStack(t, upstream)
			batch := []ids.PhotoID{st.active, st.revoked, st.active}

			jsonC := NewClient(st.proxySrv.URL, wire.CodecJSON)
			binC := NewClient(st.proxySrv.URL, wire.CodecBinary)

			// Two rounds per client: the binary client's first round
			// upgrades it, the second sends an IRSW1 request body.
			var jres, bres []ClientResult
			var err error
			for round := 0; round < 2; round++ {
				jres, err = jsonC.ValidateBatch(batch)
				if err != nil {
					t.Fatalf("json round %d: %v", round, err)
				}
				bres, err = binC.ValidateBatch(batch)
				if err != nil {
					t.Fatalf("binary round %d: %v", round, err)
				}
			}
			if !binC.binOK.Load() {
				t.Error("binary client never upgraded against a capable proxy")
			}
			for i := range batch {
				j, b := jres[i], bres[i]
				if j.State != b.State || j.Source != b.Source || j.Displayable != b.Displayable {
					t.Errorf("result %d: json %+v vs binary %+v", i, j, b)
				}
				if !bytes.Equal(j.Proof, b.Proof) {
					t.Errorf("result %d: proof bytes differ across codecs", i)
				}
			}
			// The binary answer's proofs share one buffer; each is clipped
			// to its own bytes, so a caller appending to one cannot write
			// into the next.
			for i := range bres {
				if cap(bres[i].Proof) != len(bres[i].Proof) {
					t.Errorf("result %d: proof has %d spare bytes of the shared buffer", i, cap(bres[i].Proof)-len(bres[i].Proof))
				}
			}
			if jres[0].State != ledger.StateActive || !jres[0].Displayable {
				t.Errorf("active photo answered %+v", jres[0])
			}
			if jres[1].State == ledger.StateActive || jres[1].Displayable {
				t.Errorf("revoked photo answered %+v", jres[1])
			}

			// Single-image GET agrees with the batch answer under both
			// codecs.
			for _, c := range []*Client{jsonC, binC} {
				one, err := c.Validate(st.revoked)
				if err != nil {
					t.Fatalf("%s validate: %v", c.Codec(), err)
				}
				if one.State != jres[1].State || one.Displayable != jres[1].Displayable {
					t.Errorf("%s single validate disagrees with batch: %+v", c.Codec(), one)
				}
			}
		})
	}
}

// TestProxyClientAgainstLegacyProxy pins the downgrade direction at
// the browser↔proxy hop: a binary-preferring extension against a
// JSON-only proxy gets identical answers, including after an
// upgrade-then-rollback.
func TestProxyClientAgainstLegacyProxy(t *testing.T) {
	st := newCodecStack(t, wire.CodecJSON)
	inner := st.proxySrv.Config.Handler
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wire.IsBinaryContent(r.Header.Get("Content-Type")) {
			wire.WriteError(w, http.StatusBadRequest, "invalid character looking for beginning of value")
			return
		}
		r.Header.Del("Accept")
		inner.ServeHTTP(stripAdvert{w}, r)
	}))
	defer legacy.Close()

	batch := []ids.PhotoID{st.active, st.revoked}
	want, err := NewClient(legacy.URL, wire.CodecJSON).ValidateBatch(batch)
	if err != nil {
		t.Fatal(err)
	}

	binC := NewClient(legacy.URL, wire.CodecBinary)
	got, err := binC.ValidateBatch(batch)
	if err != nil {
		t.Fatalf("binary extension vs legacy proxy: %v", err)
	}
	checkSame(t, want, got)
	if binC.binOK.Load() {
		t.Error("extension thinks a legacy proxy speaks IRSW1")
	}

	// Rollback: upgrade against the modern proxy, then hit the legacy
	// one with the same negotiation state.
	rolled := NewClient(st.proxySrv.URL, wire.CodecBinary)
	if _, err := rolled.ValidateBatch(batch); err != nil {
		t.Fatal(err)
	}
	if !rolled.binOK.Load() {
		t.Fatal("warm-up did not upgrade the extension")
	}
	rolled.base = legacy.URL
	got, err = rolled.ValidateBatch(batch)
	if err != nil {
		t.Fatalf("rolled-back batch: %v", err)
	}
	checkSame(t, want, got)
	if rolled.binOK.Load() {
		t.Error("extension kept sending binary bodies after the rollback 400")
	}
}

type stripAdvert struct{ http.ResponseWriter }

func (w stripAdvert) WriteHeader(code int) {
	w.Header().Del(wire.WireHeader)
	w.ResponseWriter.WriteHeader(code)
}

func (w stripAdvert) Write(b []byte) (int, error) {
	w.Header().Del(wire.WireHeader)
	return w.ResponseWriter.Write(b)
}

// checkSame compares decisions and proof bytes. Source is deliberately
// excluded: sequential rounds against one live proxy legitimately move
// answers from ledger to cache, which is a serving detail, not a
// decision.
func checkSame(t *testing.T, want, got []ClientResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].State != got[i].State ||
			want[i].Displayable != got[i].Displayable || !bytes.Equal(want[i].Proof, got[i].Proof) {
			t.Errorf("result %d: %+v vs %+v", i, want[i], got[i])
		}
	}
}
