package camera

import (
	"crypto/ed25519"
	"crypto/rand"
	"testing"

	"irs/internal/provenance"
)

func deviceSigner(t *testing.T) *provenance.Signer {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return &provenance.Signer{Pub: pub, Priv: priv}
}

func TestClaimAndLabelAttachesProvenance(t *testing.T) {
	cam, _ := newTestRig(t, false)
	cam.Device = deviceSigner(t)
	labeled, owned, err := cam.ClaimAndLabel(cam.Shoot(30, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	chain, present, err := provenance.Extract(labeled)
	if err != nil || !present {
		t.Fatalf("manifest: present=%v err=%v", present, err)
	}
	// The chain must verify against the labeled (watermarked) pixels.
	if err := chain.Verify(labeled); err != nil {
		t.Fatalf("chain verify: %v", err)
	}
	id, ok := chain.ClaimID()
	if !ok || id != owned.ID {
		t.Errorf("chain claim id %v, want %v", id, owned.ID)
	}
	if first := chain.Assertions[0]; first.Action != provenance.ActionCreated || !cam.Device.Pub.Equal(ed25519.PublicKey(first.Actor)) {
		t.Error("chain origin is not the device key")
	}
	// Three assertions: created, claim, label edit.
	if len(chain.Assertions) != 3 {
		t.Errorf("chain length %d, want 3", len(chain.Assertions))
	}
}

func TestNoDeviceNoProvenance(t *testing.T) {
	cam, _ := newTestRig(t, false)
	labeled, _, err := cam.ClaimAndLabel(cam.Shoot(31, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if _, present, _ := provenance.Extract(labeled); present {
		t.Error("manifest attached without a device signer")
	}
}
