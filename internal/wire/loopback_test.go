package wire

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"testing"

	"irs/internal/bloom"
	"irs/internal/ids"
	"irs/internal/ledger"
)

// Loopback must behave exactly like the HTTP client against the same
// ledger; these tests pin the parity for the paths the experiments use.
func TestLoopbackParity(t *testing.T) {
	l, err := ledger.New(ledger.Config{ID: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lb := &Loopback{L: l}

	k := newKeypair(t)
	h := sha256.Sum256([]byte("loopback"))
	rec, err := lb.Claim(&ClaimRequest{
		ContentHash: h[:],
		PubKey:      k.pub,
		HashSig:     ed25519.Sign(k.priv, ledger.ClaimMsg(h)),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Keys.
	keys, err := lb.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if keys.LedgerID != 7 || len(keys.SigningKey) != ed25519.PublicKeySize {
		t.Errorf("keys: %+v", keys)
	}

	// Seq + Apply.
	seq, err := lb.Seq(rec.ID)
	if err != nil || seq != 0 {
		t.Fatalf("seq %d err %v", seq, err)
	}
	sig := ed25519.Sign(k.priv, ledger.OpMsg(rec.ID, ledger.OpRevoke, 1))
	if err := lb.Apply(rec.ID, ledger.OpRevoke, 1, sig); err != nil {
		t.Fatal(err)
	}
	p, err := lb.Status(rec.ID)
	if err != nil || p.State != ledger.StateRevoked {
		t.Fatalf("status %v err %v", p, err)
	}

	// Filter + delta.
	if _, err := l.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	snap, epoch, err := lb.FilterSync(0, nil)
	if err != nil || epoch != 1 {
		t.Fatalf("filter epoch %d err %v", epoch, err)
	}
	f, err := bloom.ApplyUpdate(nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Test(ledger.FilterKey(rec.ID)) {
		t.Error("revoked claim missing from loopback filter")
	}
	if _, err := l.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	base := f.Hash()
	payload, latest, err := lb.FilterSync(epoch, base[:])
	if err != nil || latest != 2 {
		t.Fatalf("sync latest %d err %v", latest, err)
	}
	if _, err := bloom.ApplyUpdate(f, payload); err != nil {
		t.Fatal(err)
	}

	// PermanentRevoke (trusted in-process caller).
	if err := lb.PermanentRevoke(rec.ID); err != nil {
		t.Fatal(err)
	}
	p, err = lb.Status(rec.ID)
	if err != nil || p.State != ledger.StatePermanentlyRevoked {
		t.Fatalf("after permanent revoke: %v err %v", p, err)
	}

	// Bad hash length.
	if _, err := lb.Claim(&ClaimRequest{ContentHash: []byte("short")}); err == nil {
		t.Error("short hash accepted by loopback")
	}
}

// TestClientStatusMatchesLoopback: Client.Status reaches the ledger as
// a one-id status batch over HTTP, Loopback.Status through
// ledger.Status; under a pinned clock both give byte-identical proofs
// for an active, a revoked, an unknown and a permanently revoked id.
func TestClientStatusMatchesLoopback(t *testing.T) {
	env := newEnv(t, ledger.Config{Clock: fixedClock}, "admin")
	lb := &Loopback{L: env.ledger}
	k := newKeypair(t)
	permanent := k.claimVia(t, env.client, "parity permanent", false).ID
	if err := env.client.PermanentRevoke(permanent); err != nil {
		t.Fatal(err)
	}
	unknown, err := ids.New(env.ledger.ID())
	if err != nil {
		t.Fatal(err)
	}
	for want, id := range map[ledger.State]ids.PhotoID{
		ledger.StateActive:             k.claimVia(t, env.client, "parity active", false).ID,
		ledger.StateRevoked:            k.claimVia(t, env.client, "parity revoked", true).ID,
		ledger.StateUnknown:            unknown,
		ledger.StatePermanentlyRevoked: permanent,
	} {
		viaHTTP, err := env.client.Status(id)
		if err != nil {
			t.Fatalf("%v: client status: %v", want, err)
		}
		direct, err := lb.Status(id)
		if err != nil {
			t.Fatalf("%v: loopback status: %v", want, err)
		}
		if viaHTTP.State != want || !bytes.Equal(viaHTTP.Marshal(), direct.Marshal()) {
			t.Errorf("%v: client proof %x, loopback proof %x", want, viaHTTP.Marshal(), direct.Marshal())
		}
	}
}
