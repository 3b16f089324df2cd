package ledger

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"sync"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/obs"
)

// owner is a test helper playing the camera-side role: a per-photo
// keypair that signs claims and operations.
type owner struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

func newOwner(t testing.TB) *owner {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return &owner{pub: pub, priv: priv}
}

func (o *owner) claim(t testing.TB, l *Ledger, hash [32]byte, revoked bool) Receipt {
	t.Helper()
	r, err := l.Claim(hash, o.pub, ed25519.Sign(o.priv, ClaimMsg(hash)), revoked)
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	return r
}

func (o *owner) signOp(id ids.PhotoID, op Op, seq uint64) []byte {
	return ed25519.Sign(o.priv, OpMsg(id, op, seq))
}

func newLedger(t testing.TB) *Ledger {
	t.Helper()
	l, err := New(Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func hashOf(s string) [32]byte { return sha256.Sum256([]byte(s)) }

func TestClaimAndStatus(t *testing.T) {
	l := newLedger(t)
	o := newOwner(t)
	r := o.claim(t, l, hashOf("photo1"), false)
	if r.ID.Ledger != 1 {
		t.Errorf("issued id under ledger %d, want 1", r.ID.Ledger)
	}
	if r.Timestamp == nil {
		t.Fatal("no timestamp token")
	}
	p, err := l.Status(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.State != StateActive {
		t.Errorf("state = %v, want active", p.State)
	}
	if !p.Displayable() {
		t.Error("active claim should be displayable")
	}
	if err := VerifyProof(l.SigningKey(), p, time.Now(), time.Minute); err != nil {
		t.Errorf("proof verification: %v", err)
	}
}

func TestClaimRejectsBadSignature(t *testing.T) {
	l := newLedger(t)
	o := newOwner(t)
	h := hashOf("photo")
	// Signature over the wrong hash.
	if _, err := l.Claim(h, o.pub, ed25519.Sign(o.priv, ClaimMsg(hashOf("other"))), false); err != ErrBadSignature {
		t.Errorf("got %v, want ErrBadSignature", err)
	}
	// Garbage key length.
	if _, err := l.Claim(h, []byte("short"), nil, false); err == nil {
		t.Error("short key accepted")
	}
}

func TestRevokedAtBirth(t *testing.T) {
	// §4.4: "many photos will be automatically registered and revoked".
	l := newLedger(t)
	o := newOwner(t)
	r := o.claim(t, l, hashOf("auto"), true)
	p, err := l.Status(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.State != StateRevoked {
		t.Errorf("state = %v, want revoked", p.State)
	}
	if p.Displayable() {
		t.Error("revoked claim displayable")
	}
	// Owner unrevokes to share.
	if err := l.Apply(r.ID, OpUnrevoke, o.signOp(r.ID, OpUnrevoke, 1)); err != nil {
		t.Fatal(err)
	}
	p, err = l.Status(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.State != StateActive {
		t.Errorf("after unrevoke: %v", p.State)
	}
}

func TestRevokeUnrevokeCycle(t *testing.T) {
	l := newLedger(t)
	o := newOwner(t)
	r := o.claim(t, l, hashOf("cycle"), false)
	for i := uint64(1); i <= 6; i += 2 {
		if err := l.Apply(r.ID, OpRevoke, o.signOp(r.ID, OpRevoke, i)); err != nil {
			t.Fatalf("revoke seq %d: %v", i, err)
		}
		if err := l.Apply(r.ID, OpUnrevoke, o.signOp(r.ID, OpUnrevoke, i+1)); err != nil {
			t.Fatalf("unrevoke seq %d: %v", i+1, err)
		}
	}
	_, revoked := l.Count()
	if revoked != 0 {
		t.Errorf("revoked count = %d after cycles", revoked)
	}
}

func TestApplyRejectsWrongKey(t *testing.T) {
	l := newLedger(t)
	o := newOwner(t)
	attacker := newOwner(t)
	r := o.claim(t, l, hashOf("target"), false)
	if err := l.Apply(r.ID, OpRevoke, attacker.signOp(r.ID, OpRevoke, 1)); err != ErrBadSignature {
		t.Errorf("got %v, want ErrBadSignature", err)
	}
}

func TestApplyRejectsReplay(t *testing.T) {
	l := newLedger(t)
	o := newOwner(t)
	r := o.claim(t, l, hashOf("replay"), false)
	sig1 := o.signOp(r.ID, OpRevoke, 1)
	if err := l.Apply(r.ID, OpRevoke, sig1); err != nil {
		t.Fatal(err)
	}
	if err := l.Apply(r.ID, OpUnrevoke, o.signOp(r.ID, OpUnrevoke, 2)); err != nil {
		t.Fatal(err)
	}
	// A replayed signature covers an old sequence number, so it does not
	// verify for the next one.
	if err := l.Apply(r.ID, OpRevoke, sig1); err != ErrBadSignature {
		t.Errorf("replay: got %v, want ErrBadSignature", err)
	}
	p, _ := l.Status(r.ID)
	if p.State != StateActive {
		t.Errorf("replay changed state to %v", p.State)
	}
}

// applyOps advances r's operation sequence to n with alternating signed
// revokes and unrevokes, returning the signature of the last one.
func applyOps(t *testing.T, l *Ledger, o *owner, id ids.PhotoID, n uint64) []byte {
	t.Helper()
	var sig []byte
	for s := uint64(1); s <= n; s++ {
		op := OpRevoke
		if s%2 == 0 {
			op = OpUnrevoke
		}
		sig = o.signOp(id, op, s)
		if err := l.Apply(id, op, sig); err != nil {
			t.Fatalf("op %d: %v", s, err)
		}
	}
	return sig
}

// TestApplyReplayAtHighSequence: a valid signature replayed deep into a
// claim's history is ErrBadSignature, like any other that does not
// cover the next sequence number; the ledger does not scan past
// sequence numbers to tell the two apart.
func TestApplyReplayAtHighSequence(t *testing.T) {
	l := newLedger(t)
	o := newOwner(t)
	r := o.claim(t, l, hashOf("deep replay"), false)
	last := applyOps(t, l, o, r.ID, 40)
	for name, sig := range map[string][]byte{
		"latest": last,
		"recent": o.signOp(r.ID, OpUnrevoke, 38),
		"old":    o.signOp(r.ID, OpUnrevoke, 2),
	} {
		if err := l.Apply(r.ID, OpUnrevoke, sig); err != ErrBadSignature {
			t.Errorf("%s replay at sequence 40: got %v, want ErrBadSignature", name, err)
		}
	}
	if rec, err := l.Record(r.ID); err != nil || rec.OpSeq != 40 || rec.State != StateActive {
		t.Errorf("replays moved the record: %+v %v", rec, err)
	}
}

// TestApplyBadSignatureVerifiesOnce: a bad op signature costs one
// Ed25519 verification, not one per recent sequence number. The message
// for each verification is the one allocation on this path, so the
// count of verifications shows as the count of allocations.
func TestApplyBadSignatureVerifiesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted without the race detector")
	}
	l := newLedger(t)
	o := newOwner(t)
	r := o.claim(t, l, hashOf("bad signature"), false)
	applyOps(t, l, o, r.ID, 40)
	bad := make([]byte, ed25519.SignatureSize)
	allocs := testing.AllocsPerRun(50, func() {
		if err := l.Apply(r.ID, OpRevoke, bad); err != ErrBadSignature {
			t.Fatalf("bad signature: %v", err)
		}
	})
	if allocs > 1 {
		t.Errorf("a bad signature at sequence 40 cost %.0f allocations, want 1 (one verification)", allocs)
	}
}

func TestApplyUnknownID(t *testing.T) {
	l := newLedger(t)
	o := newOwner(t)
	id, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Apply(id, OpRevoke, o.signOp(id, OpRevoke, 1)); err != ErrNotFound {
		t.Errorf("got %v, want ErrNotFound", err)
	}
}

func TestNonRevocableLedger(t *testing.T) {
	// §5: human-rights ledgers "could register photos and not allow
	// their revocation".
	l, err := New(Config{ID: 2, NonRevocable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	o := newOwner(t)
	r, err := l.Claim(hashOf("evidence"), o.pub, ed25519.Sign(o.priv, ClaimMsg(hashOf("evidence"))), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Apply(r.ID, OpRevoke, o.signOp(r.ID, OpRevoke, 1)); err != ErrNonRevocable {
		t.Errorf("got %v, want ErrNonRevocable", err)
	}
}

func TestPermanentRevoke(t *testing.T) {
	l := newLedger(t)
	o := newOwner(t)
	r := o.claim(t, l, hashOf("stolen"), false)
	if err := l.PermanentRevoke(r.ID); err != nil {
		t.Fatal(err)
	}
	p, _ := l.Status(r.ID)
	if p.State != StatePermanentlyRevoked {
		t.Errorf("state = %v", p.State)
	}
	// Even the rightful key cannot unrevoke.
	if err := l.Apply(r.ID, OpUnrevoke, o.signOp(r.ID, OpUnrevoke, 1)); err != ErrPermanent {
		t.Errorf("got %v, want ErrPermanent", err)
	}
	if err := l.PermanentRevoke(mustID(t)); err != ErrNotFound {
		t.Errorf("unknown id: got %v, want ErrNotFound", err)
	}
}

func mustID(t testing.TB) ids.PhotoID {
	t.Helper()
	id, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestStatusUnknownSigned(t *testing.T) {
	l := newLedger(t)
	p, err := l.Status(mustID(t))
	if err != nil {
		t.Fatal(err)
	}
	if p.State != StateUnknown {
		t.Errorf("state = %v, want unknown", p.State)
	}
	if p.Displayable() {
		t.Error("unknown claim displayable")
	}
	if err := VerifyProof(l.SigningKey(), p, time.Now(), time.Minute); err != nil {
		t.Errorf("unknown-state proof must still verify: %v", err)
	}
}

func TestCustodialClaim(t *testing.T) {
	l := newLedger(t)
	agg := newOwner(t)
	h := hashOf("unlabeled upload")
	r, err := l.CustodialClaim(h, agg.pub, ed25519.Sign(agg.priv, ClaimMsg(h)))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := l.Record(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Custodial {
		t.Error("custodial flag not set")
	}
	if rec.State != StateActive {
		t.Errorf("custodial claim state %v", rec.State)
	}
}

func TestRecordCopyIsolated(t *testing.T) {
	l := newLedger(t)
	o := newOwner(t)
	r := o.claim(t, l, hashOf("rec"), false)
	rec, err := l.Record(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	rec.PubKey[0] ^= 0xff
	rec2, err := l.Record(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.PubKey[0] == rec.PubKey[0] {
		t.Error("Record returned shared key slice")
	}
	if _, err := l.Record(mustID(t)); err != ErrNotFound {
		t.Errorf("unknown: got %v", err)
	}
}

func TestProofTamperDetected(t *testing.T) {
	l := newLedger(t)
	o := newOwner(t)
	r := o.claim(t, l, hashOf("tamper"), true) // revoked
	p, err := l.Status(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Attacker flips the state to active.
	forged := *p
	forged.State = StateActive
	if err := VerifyProof(l.SigningKey(), &forged, time.Now(), time.Minute); err != ErrProofSignature {
		t.Errorf("forged proof: got %v, want ErrProofSignature", err)
	}
}

func TestProofStaleness(t *testing.T) {
	base := time.Date(2022, 11, 14, 12, 0, 0, 0, time.UTC)
	clock := base
	l, err := New(Config{ID: 3, Clock: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	o := newOwner(t)
	r := o.claim(t, l, hashOf("stale"), false)
	p, err := l.Status(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProof(l.SigningKey(), p, base.Add(30*time.Second), time.Minute); err != nil {
		t.Errorf("fresh proof rejected: %v", err)
	}
	if err := VerifyProof(l.SigningKey(), p, base.Add(2*time.Hour), time.Minute); err != ErrProofStale {
		t.Errorf("old proof: got %v, want ErrProofStale", err)
	}
	// maxAge 0 disables the freshness check.
	if err := VerifyProof(l.SigningKey(), p, base.Add(2*time.Hour), 0); err != nil {
		t.Errorf("maxAge=0 should skip staleness: %v", err)
	}
}

func TestProofMarshalRoundTrip(t *testing.T) {
	l := newLedger(t)
	o := newOwner(t)
	r := o.claim(t, l, hashOf("wire"), false)
	p, err := l.Status(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalProof(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != p.ID || got.State != p.State || !got.IssuedAt.Equal(p.IssuedAt) {
		t.Error("round trip changed fields")
	}
	if err := VerifyProof(l.SigningKey(), got, time.Now(), time.Minute); err != nil {
		t.Errorf("round-tripped proof fails verification: %v", err)
	}
	if _, err := UnmarshalProof([]byte("junk")); err == nil {
		t.Error("junk proof accepted")
	}
}

func TestMetrics(t *testing.T) {
	l := newLedger(t)
	o := newOwner(t)
	r := o.claim(t, l, hashOf("m1"), false)
	o2 := newOwner(t)
	o2.claim(t, l, hashOf("m2"), false)
	if err := l.Apply(r.ID, OpRevoke, o.signOp(r.ID, OpRevoke, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Status(r.ID); err != nil {
		t.Fatal(err)
	}
	m := l.Metrics()
	if m.Claims != 2 || m.Ops != 1 || m.Queries != 1 {
		t.Errorf("metrics = %+v", m)
	}
	// Phase measurement is by snapshot delta, not reset.
	before := l.Metrics()
	if _, err := l.Status(r.ID); err != nil {
		t.Fatal(err)
	}
	if d := l.Metrics().Queries - before.Queries; d != 1 {
		t.Errorf("query delta = %d, want 1", d)
	}
	// The same counters are visible on the registry as Prometheus series.
	snap := l.Registry().Snapshot()
	if v, ok := obs.Value(snap, "irs_ledger_queries_total", obs.L("ledger", "1")); !ok || v != 2 {
		t.Errorf("registry queries = %v (ok=%v), want 2", v, ok)
	}
}

func TestConcurrentClaimsAndQueries(t *testing.T) {
	l := newLedger(t)
	var wg sync.WaitGroup
	idsCh := make(chan ids.PhotoID, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := newOwner(t)
			for i := 0; i < 20; i++ {
				h := sha256.Sum256([]byte{byte(w), byte(i)})
				r, err := l.Claim(h, o.pub, ed25519.Sign(o.priv, ClaimMsg(h)), i%2 == 0)
				if err != nil {
					t.Errorf("claim: %v", err)
					return
				}
				idsCh <- r.ID
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for id := range idsCh {
			if _, err := l.Status(id); err != nil {
				t.Errorf("status: %v", err)
			}
		}
		close(done)
	}()
	wg.Wait()
	close(idsCh)
	<-done
	claims, _ := l.Count()
	if claims != 160 {
		t.Errorf("claims = %d, want 160", claims)
	}
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[State]string{
		StateUnknown: "unknown", StateActive: "active",
		StateRevoked: "revoked", StatePermanentlyRevoked: "permanently-revoked",
		State(99): "unknown",
	} {
		if st.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestAccessors(t *testing.T) {
	l := newLedger(t)
	if l.ID() != 1 {
		t.Errorf("ID() = %d", l.ID())
	}
	if len(l.TimestampKey()) == 0 {
		t.Error("empty timestamp key")
	}
	if len(l.SigningKey()) == 0 {
		t.Error("empty signing key")
	}
}

func TestZeroLedgerIDRejected(t *testing.T) {
	if _, err := New(Config{ID: 0}); err == nil {
		t.Error("ledger id 0 accepted")
	}
}

func TestApplyUnknownOp(t *testing.T) {
	l := newLedger(t)
	o := newOwner(t)
	r := o.claim(t, l, hashOf("badop"), false)
	// A signature over an unknown op value: Verify fails for known
	// messages, so the error is a bad signature (never a state change).
	sig := o.signOp(r.ID, Op(9), 1)
	if err := l.Apply(r.ID, Op(9), sig); err == nil {
		t.Error("unknown op accepted")
	}
	p, _ := l.Status(r.ID)
	if p.State != StateActive {
		t.Errorf("unknown op changed state to %v", p.State)
	}
}
