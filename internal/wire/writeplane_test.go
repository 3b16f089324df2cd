package wire

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/tsa"
)

// twinLedger returns a ledger that issues the same identifiers as
// every other twinLedger of the same policy: one ledger id, clock and
// id stream. Its keys are its own.
func twinLedger(t *testing.T, nonRevocable bool) *ledger.Ledger {
	t.Helper()
	l, err := ledger.New(ledger.Config{ID: 7, Clock: fixedClock, NonRevocable: nonRevocable,
		Rand: mrand.New(mrand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// writeDiff sends every write twice, as JSON to one twin ledger and
// through Client (IRSW1) to the other, and holds the answers to each
// other.
type writeDiff struct {
	t       *testing.T
	jl, bl  *ledger.Ledger
	jsonURL string
	bin     *Client
	claimed []ids.PhotoID
}

func newWriteDiff(t *testing.T, nonRevocable bool) *writeDiff {
	d := &writeDiff{t: t, jl: twinLedger(t, nonRevocable), bl: twinLedger(t, nonRevocable)}
	js := httptest.NewServer(NewServer(d.jl, ""))
	t.Cleanup(js.Close)
	bs := httptest.NewServer(NewServer(d.bl, ""))
	t.Cleanup(bs.Close)
	d.jsonURL, d.bin = js.URL, NewClient(bs.URL, "")
	return d
}

// postJSON posts req as JSON the way a browser or curl does and returns
// the raw answer, and its *Error when the status is not 2xx.
func (d *writeDiff) postJSON(path string, req any) ([]byte, error) {
	d.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		d.t.Fatal(err)
	}
	r, err := http.Post(d.jsonURL+path, ContentTypeJSON, bytes.NewReader(body))
	if err != nil {
		d.t.Fatal(err)
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		d.t.Fatal(err)
	}
	if r.StatusCode/100 != 2 {
		var e Error
		if err := json.Unmarshal(raw, &e); err != nil || e.Code != r.StatusCode {
			d.t.Fatalf("%s: %d answer %q is not a JSON error", path, r.StatusCode, raw)
		}
		return raw, &e
	}
	return raw, nil
}

// sameError fails unless both codecs answered code (0: success), each
// failure a *Error.
func (d *writeDiff) sameError(name string, code int, jerr, berr error) {
	d.t.Helper()
	var je, be *Error
	if (jerr != nil && !errors.As(jerr, &je)) || (berr != nil && !errors.As(berr, &be)) {
		d.t.Fatalf("%s: errors %v (JSON) and %v (IRSW1) are not both wire errors", name, jerr, berr)
	}
	if ErrStatus(jerr) != code || ErrStatus(berr) != code {
		d.t.Errorf("%s: JSON answered %d (%v), IRSW1 %d (%v), want %d", name, ErrStatus(jerr), jerr, ErrStatus(berr), berr, code)
	}
}

// claim registers req both ways, wants code, and on success returns the
// IRSW1 receipt, which must match the JSON one but for the signatures,
// each of which must verify against its own ledger's keys.
func (d *writeDiff) claim(name string, req *ClaimRequest, code int) ledger.Receipt {
	d.t.Helper()
	raw, jerr := d.postJSON("/v1/claim", req)
	brc, berr := d.bin.Claim(req)
	d.sameError(name, code, jerr, berr)
	if code != 0 || jerr != nil || berr != nil {
		return ledger.Receipt{}
	}
	// The JSON answer is today's encoding of its receipt, byte for byte.
	var resp ClaimResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		d.t.Fatalf("%s: JSON answer %q: %v", name, raw, err)
	}
	jid, err := ids.Parse(resp.ID)
	if err != nil {
		d.t.Fatalf("%s: JSON answer id: %v", name, err)
	}
	tok, err := tsa.Unmarshal(resp.Timestamp)
	if err != nil {
		d.t.Fatalf("%s: JSON answer: %v", name, err)
	}
	jrc := ledger.Receipt{ID: jid, Timestamp: tok}
	if resp.Proof != nil {
		if jrc.Proof, err = ledger.UnmarshalProof(resp.Proof); err != nil || jrc.Proof.ID != jid {
			d.t.Fatalf("%s: JSON answer's proof %+v: %v", name, jrc.Proof, err)
		}
	}
	jresp := &ClaimResponse{ID: jrc.ID.String(), Timestamp: jrc.Timestamp.Marshal()}
	if jrc.Proof != nil {
		jresp.Proof = jrc.Proof.Marshal()
	}
	want, err := json.Marshal(jresp)
	if err != nil {
		d.t.Fatal(err)
	}
	if !bytes.Equal(raw, append(want, '\n')) {
		d.t.Errorf("%s: JSON answer\n%s\nis not the encoding of its receipt\n%s", name, raw, want)
	}

	jt, bt := jrc.Timestamp, brc.Timestamp
	if jrc.ID != brc.ID || jt.Serial != bt.Serial || !jt.Time.Equal(bt.Time) || jt.Digest != bt.Digest {
		d.t.Errorf("%s: receipts differ: JSON %v %+v, IRSW1 %v %+v", name, jrc.ID, jt, brc.ID, bt)
	}
	jp, bp := jrc.Proof, brc.Proof
	if (jp == nil) != (bp == nil) || jp != nil && (jp.ID != bp.ID || jp.State != bp.State || !jp.IssuedAt.Equal(bp.IssuedAt)) {
		d.t.Errorf("%s: proofs differ: JSON %+v, IRSW1 %+v", name, jp, bp)
	}
	for _, s := range []struct {
		l  *ledger.Ledger
		rc ledger.Receipt
	}{{d.jl, jrc}, {d.bl, brc}} {
		if err := tsa.Verify(s.l.TimestampKey(), s.rc.Timestamp); err != nil {
			d.t.Errorf("%s: token: %v", name, err)
		}
		if s.rc.Proof != nil {
			if err := ledger.VerifyProof(s.l.SigningKey(), s.rc.Proof, fixedClock(), 0); err != nil {
				d.t.Errorf("%s: proof: %v", name, err)
			}
		}
	}
	d.claimed = append(d.claimed, brc.ID)
	return brc
}

// op applies a signed op both ways and wants code.
func (d *writeDiff) op(name string, id ids.PhotoID, op ledger.Op, seq uint64, sig []byte, code int) {
	d.t.Helper()
	raw, jerr := d.postJSON("/v1/op", &OpRequest{ID: id.String(), Op: int(op), Seq: seq, Sig: sig})
	berr := d.bin.Apply(id, op, seq, sig)
	d.sameError(name, code, jerr, berr)
	if code == 0 && string(raw) != "{}\n" {
		d.t.Errorf("%s: JSON answer %q, want {}", name, raw)
	}
}

// sameState fails unless the twins hold the same claims, record for
// record: content hash, owner key and signature, timestamp (but for
// its signature), state, op sequence and custody.
func (d *writeDiff) sameState() {
	d.t.Helper()
	jc, jr := d.jl.Count()
	bc, br := d.bl.Count()
	if jc != bc || jr != br || jc != len(d.claimed) {
		d.t.Errorf("counts differ: JSON %d claims, %d revoked; IRSW1 %d, %d; %d claimed", jc, jr, bc, br, len(d.claimed))
	}
	for _, id := range d.claimed {
		j, jerr := d.jl.Record(id)
		b, berr := d.bl.Record(id)
		if jerr != nil || berr != nil {
			d.t.Fatalf("record %v: %v (JSON), %v (IRSW1)", id, jerr, berr)
		}
		jt, bt := j.Timestamp, b.Timestamp
		if j.ContentHash != b.ContentHash || !bytes.Equal(j.PubKey, b.PubKey) || !bytes.Equal(j.HashSig, b.HashSig) ||
			j.State != b.State || j.OpSeq != b.OpSeq || j.Custodial != b.Custodial ||
			jt.Serial != bt.Serial || !jt.Time.Equal(bt.Time) || jt.Digest != bt.Digest {
			d.t.Errorf("record %v differs:\nJSON  %+v\nIRSW1 %+v", id, j, b)
		}
	}
}

// claimOf is k's signed claim of content.
func (k keypair) claimOf(content string, custodial, revoked bool) *ClaimRequest {
	h := sha256.Sum256([]byte(content))
	return &ClaimRequest{ContentHash: h[:], PubKey: k.pub, HashSig: ed25519.Sign(k.priv, ledger.ClaimMsg(h)),
		Custodial: custodial, RevokedAtBirth: revoked}
}

func (k keypair) signOp(id ids.PhotoID, op ledger.Op, seq uint64) []byte {
	return ed25519.Sign(k.priv, ledger.OpMsg(id, op, seq))
}

// TestWritePlaneJSONMatchesIRSW1: the same claims and owner ops, sent
// as JSON to one ledger and as IRSW1 to its twin, leave the same claim
// records, give the same receipts (identifier, timestamp token and proof
// fields, each signature verifying against its own ledger; the JSON
// answer byte for byte what it was), and fail with the same wire error: a bad signature, an unknown identifier, a stale
// sequence, a permanent revocation and a non-revocable ledger.
func TestWritePlaneJSONMatchesIRSW1(t *testing.T) {
	d := newWriteDiff(t, false)
	k, attacker := newKeypair(t), newKeypair(t)

	a := d.claim("claim", k.claimOf("diff a", false, false), 0)
	b := d.claim("born revoked", k.claimOf("diff b", false, true), 0)
	d.claim("custodial", k.claimOf("diff c", true, false), 0)
	d.claim("custodial wins over born revoked", k.claimOf("diff d", true, true), 0)
	bad := k.claimOf("diff e", false, false)
	bad.HashSig = attacker.claimOf("diff e", false, false).HashSig
	d.claim("bad claim signature", bad, http.StatusForbidden)
	if a.ID == b.ID || a.Proof == nil || b.Proof.State != ledger.StateRevoked {
		t.Fatalf("receipts %+v, %+v", a, b)
	}

	unknown, err := ids.New(7)
	if err != nil {
		t.Fatal(err)
	}
	d.op("revoke", a.ID, ledger.OpRevoke, 1, k.signOp(a.ID, ledger.OpRevoke, 1), 0)
	d.op("bad signature", b.ID, ledger.OpUnrevoke, 1, attacker.signOp(b.ID, ledger.OpUnrevoke, 1), http.StatusForbidden)
	d.op("unknown id", unknown, ledger.OpRevoke, 1, k.signOp(unknown, ledger.OpRevoke, 1), http.StatusNotFound)
	d.op("stale seq", a.ID, ledger.OpUnrevoke, 1, k.signOp(a.ID, ledger.OpUnrevoke, 1), http.StatusForbidden)
	d.op("unrevoke", a.ID, ledger.OpUnrevoke, 2, k.signOp(a.ID, ledger.OpUnrevoke, 2), 0)
	for _, l := range []*ledger.Ledger{d.jl, d.bl} {
		if err := l.PermanentRevoke(b.ID); err != nil {
			t.Fatal(err)
		}
	}
	d.op("permanently revoked", b.ID, ledger.OpUnrevoke, 1, k.signOp(b.ID, ledger.OpUnrevoke, 1), http.StatusConflict)
	d.sameState()

	nr := newWriteDiff(t, true)
	x := nr.claim("claim on a non-revocable ledger", k.claimOf("diff x", false, false), 0)
	nr.op("non-revocable", x.ID, ledger.OpRevoke, 1, k.signOp(x.ID, ledger.OpRevoke, 1), http.StatusConflict)
	nr.sameState()
}

// TestWriteRoutesKeepNothingOfPooledBody: /v1/claim and /v1/op decode
// an IRSW1 request in place, in the pooled body buffer. Scribbling over
// that buffer once the handler has returned must leave the stored claim
// — content hash, key, signature, state — as it was sent.
func TestWriteRoutesKeepNothingOfPooledBody(t *testing.T) {
	l, err := ledger.New(ledger.Config{ID: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := NewServer(l, "")
	k := newKeypair(t)
	// serve runs one binary request in this goroutine, into a pooled
	// buffer borrowed and returned just before, and reports whether the
	// handler read the body into that buffer, which is then scribbled.
	serve := func(path string, body []byte) ([]byte, bool) {
		bp := GetBuf()
		PutBuf(bp)
		hr := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		hr.Header.Set("Content-Type", ContentTypeBinary)
		hr.Header.Set("Accept", ContentTypeBinary)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, hr)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		used := bytes.Contains((*bp)[:cap(*bp)], body)
		if used {
			all := (*bp)[:cap(*bp)]
			for i := range all {
				all[i] = 0xA5
			}
		}
		return rec.Body.Bytes(), used
	}
	scribbled := 0
	for i := 0; i < 64 && scribbled < 8; i++ {
		req := k.claimOf(fmt.Sprintf("pooled %d", i), false, false)
		answer, usedClaim := serve("/v1/claim", EncodeClaimReq(nil, req))
		_, payload, err := DecodeMsg(answer, MaxFramePayload)
		if err != nil {
			t.Fatal(err)
		}
		id, _, _, err := DecodeClaimResp(payload)
		if err != nil {
			t.Fatal(err)
		}
		_, usedOp := serve("/v1/op", EncodeOpReq(nil, id, ledger.OpRevoke, k.signOp(id, ledger.OpRevoke, 1)))
		if usedClaim || usedOp {
			scribbled++
		}
		rec, err := l.Record(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.ContentHash[:], req.ContentHash) || !bytes.Equal(rec.PubKey, req.PubKey) ||
			!bytes.Equal(rec.HashSig, req.HashSig) || rec.State != ledger.StateRevoked || rec.OpSeq != 1 {
			t.Fatalf("claim %d: stored record %+v differs from the request", i, rec)
		}
		if !ed25519.Verify(rec.PubKey, ledger.ClaimMsg(rec.ContentHash), rec.HashSig) {
			t.Fatalf("claim %d: stored signature does not verify", i)
		}
	}
	if scribbled == 0 {
		t.Fatal("no request was read into the buffer the test scribbles")
	}
}

// TestWriteFrameRoundtrips unit-tests the op and claim codecs.
func TestWriteFrameRoundtrips(t *testing.T) {
	id, err := ids.New(3)
	if err != nil {
		t.Fatal(err)
	}
	sig := bytes.Repeat([]byte{7}, 64)
	kind, payload, err := DecodeMsg(EncodeOpReq(nil, id, ledger.OpUnrevoke, sig), MaxFramePayload)
	if err != nil || kind != MsgOpReq {
		t.Fatalf("op req: kind %c err %v", kind, err)
	}
	gid, op, gsig, err := DecodeOpReq(payload)
	if err != nil || gid != id || op != ledger.OpUnrevoke || !bytes.Equal(gsig, sig) {
		t.Fatalf("op req roundtrip: %v %v %x %v", gid, op, gsig, err)
	}
	if kind, payload, err = DecodeMsg(EncodeOpResp(nil), MaxFramePayload); err != nil || kind != MsgOpResp || DecodeOpResp(payload) != nil {
		t.Fatalf("op resp: kind %c err %v", kind, err)
	}

	for _, flags := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		req := &ClaimRequest{ContentHash: bytes.Repeat([]byte{1}, 32), PubKey: bytes.Repeat([]byte{2}, 32),
			HashSig: sig, Custodial: flags[0], RevokedAtBirth: flags[1]}
		kind, payload, err := DecodeMsg(EncodeClaimReq(nil, req), MaxFramePayload)
		if err != nil || kind != MsgClaimReq {
			t.Fatalf("claim req: kind %c err %v", kind, err)
		}
		got, err := DecodeClaimReq(payload)
		if err != nil || !bytes.Equal(got.ContentHash, req.ContentHash) || !bytes.Equal(got.PubKey, req.PubKey) ||
			!bytes.Equal(got.HashSig, req.HashSig) || got.Custodial != req.Custodial || got.RevokedAtBirth != req.RevokedAtBirth {
			t.Fatalf("claim req roundtrip %v: %+v %v", flags, got, err)
		}
	}

	tok := &tsa.Token{Serial: 9, Time: fixedClock(), Sig: sig}
	proof := &ledger.StatusProof{ID: id, State: ledger.StateRevoked, IssuedAt: fixedClock()}
	for _, p := range []*ledger.StatusProof{proof, nil} {
		kind, payload, err := DecodeMsg(EncodeClaimResp(nil, ledger.Receipt{ID: id, Timestamp: tok, Proof: p}), MaxFramePayload)
		if err != nil || kind != MsgClaimResp {
			t.Fatalf("claim resp: kind %c err %v", kind, err)
		}
		gid, token, raw, err := DecodeClaimResp(payload)
		if err != nil || gid != id || !bytes.Equal(token, tok.Marshal()) {
			t.Fatalf("claim resp roundtrip: %v %x %v", gid, token, err)
		}
		if p == nil && raw != nil || p != nil && !bytes.Equal(append(ledger.AppendProofHead(nil, id), raw...), p.Marshal()) {
			t.Fatalf("claim resp proof %x, want %v", raw, p)
		}
	}
}
