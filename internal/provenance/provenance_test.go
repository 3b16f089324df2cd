package provenance

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/photo"
)

func newSigner(t testing.TB) Signer {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return Signer{Pub: pub, Priv: priv}
}

func ts(h int) time.Time {
	return time.Date(2022, 11, 14, h, 0, 0, 0, time.UTC)
}

func TestFullChainLifecycle(t *testing.T) {
	device := newSigner(t)
	owner := newSigner(t)
	editor := newSigner(t)

	im := photo.Synth(1, 128, 96)
	chain, err := New(device, im, ts(9))
	if err != nil {
		t.Fatal(err)
	}
	id, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.AddIRSClaim(owner, id, im, ts(10)); err != nil {
		t.Fatal(err)
	}
	// An edit produces new content; the chain moves to the new hash.
	edited := photo.CompressJPEGLike(im, 75)
	if err := chain.AddEdit(editor, edited, "transcode q75", ts(11)); err != nil {
		t.Fatal(err)
	}

	// Verifies against the edited image.
	if err := chain.Verify(edited); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// But not against the original (content moved on).
	if err := chain.Verify(im); !errors.Is(err, ErrWrongContent) {
		t.Errorf("verify against stale content: %v", err)
	}
	// The claim binding survives the edit — §3.2's derivative intent.
	got, ok := chain.ClaimID()
	if !ok || got != id {
		t.Errorf("claim id %v ok=%v", got, ok)
	}
	if first := chain.Assertions[0]; first.Action != ActionCreated || !device.Pub.Equal(ed25519.PublicKey(first.Actor)) {
		t.Error("origin device lost")
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	device := newSigner(t)
	im := photo.Synth(2, 128, 96)
	chain, err := New(device, im, ts(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.AddEdit(device, im, "noop", ts(10)); err != nil {
		t.Fatal(err)
	}

	// Mutate an action string: signature must fail.
	chain.Assertions[1].Action = "c2pa.published"
	if err := chain.Verify(nil); !errors.Is(err, ErrBadSig) {
		t.Errorf("action tamper: %v", err)
	}
	chain.Assertions[1].Action = ActionEdited

	// Mutate a field.
	chain.Assertions[1].Fields["description"] = "innocent"
	if err := chain.Verify(nil); !errors.Is(err, ErrBadSig) {
		t.Errorf("field tamper: %v", err)
	}
	chain.Assertions[1].Fields["description"] = "noop"

	// Break the hash link.
	chain.Assertions[1].PrevHash[0] ^= 1
	if err := chain.Verify(nil); err == nil {
		t.Error("link tamper accepted")
	}
	chain.Assertions[1].PrevHash[0] ^= 1

	// Intact again.
	if err := chain.Verify(im); err != nil {
		t.Fatalf("restored chain: %v", err)
	}
}

func TestVerifyDetectsHistoryRewrite(t *testing.T) {
	// Replacing an early assertion (even with a validly signed one from
	// another actor) breaks every downstream link.
	device := newSigner(t)
	attacker := newSigner(t)
	im := photo.Synth(3, 128, 96)
	chain, err := New(device, im, ts(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.AddEdit(device, im, "step", ts(10)); err != nil {
		t.Fatal(err)
	}
	forged, err := New(attacker, im, ts(8)) // attacker claims earlier capture
	if err != nil {
		t.Fatal(err)
	}
	chain.Assertions[0] = forged.Assertions[0]
	if err := chain.Verify(nil); !errors.Is(err, ErrBadLink) {
		t.Errorf("history rewrite: %v", err)
	}
}

func TestVerifyRejectsDegenerate(t *testing.T) {
	empty := &Chain{}
	if err := empty.Verify(nil); !errors.Is(err, ErrEmptyChain) {
		t.Errorf("empty: %v", err)
	}
	// Chain not starting with created.
	device := newSigner(t)
	im := photo.Synth(4, 128, 96)
	c := &Chain{}
	if err := c.appendAssertion(device, ActionEdited, im.ContentHash(), ts(9), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(nil); !errors.Is(err, ErrNoCreate) {
		t.Errorf("no-create: %v", err)
	}
}

func TestEmbedExtractRoundTrip(t *testing.T) {
	device := newSigner(t)
	owner := newSigner(t)
	im := photo.Synth(5, 128, 96)
	chain, err := New(device, im, ts(9))
	if err != nil {
		t.Fatal(err)
	}
	id, err := ids.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.AddIRSClaim(owner, id, im, ts(10)); err != nil {
		t.Fatal(err)
	}
	if err := chain.Embed(im); err != nil {
		t.Fatal(err)
	}
	got, present, err := Extract(im)
	if err != nil || !present {
		t.Fatalf("extract: %v present=%v", err, present)
	}
	if err := got.Verify(im); err != nil {
		t.Fatalf("extracted chain: %v", err)
	}
	gid, ok := got.ClaimID()
	if !ok || gid != id {
		t.Error("claim id lost in metadata round trip")
	}
	// Absent manifest.
	bare := photo.Synth(6, 64, 64)
	_, present, err = Extract(bare)
	if err != nil || present {
		t.Errorf("bare image: present=%v err=%v", present, err)
	}
	// Corrupt manifest.
	bad := photo.Synth(7, 64, 64)
	bad.Meta.Set(KeyManifest, "!!!not-base64!!!")
	if _, present, err = Extract(bad); !present || err == nil {
		t.Error("corrupt manifest not reported")
	}
}

func TestManifestStrippedWithMetadata(t *testing.T) {
	// The manifest rides in metadata, so stripping kills it — which is
	// exactly why IRS also watermarks (the two are complementary).
	device := newSigner(t)
	im := photo.Synth(8, 128, 96)
	chain, err := New(device, im, ts(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.Embed(im); err != nil {
		t.Fatal(err)
	}
	stripped, err := photo.StripViaPNM(im)
	if err != nil {
		t.Fatal(err)
	}
	if _, present, _ := Extract(stripped); present {
		t.Error("manifest survived a strip — PNM must not carry metadata")
	}
}

func TestClaimIDPrefersLatest(t *testing.T) {
	device := newSigner(t)
	owner := newSigner(t)
	im := photo.Synth(9, 128, 96)
	chain, err := New(device, im, ts(9))
	if err != nil {
		t.Fatal(err)
	}
	id1, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.AddIRSClaim(owner, id1, im, ts(10)); err != nil {
		t.Fatal(err)
	}
	if err := chain.AddIRSClaim(owner, id2, im, ts(11)); err != nil {
		t.Fatal(err)
	}
	got, ok := chain.ClaimID()
	if !ok || got != id2 {
		t.Errorf("ClaimID = %v, want latest %v", got, id2)
	}
}
