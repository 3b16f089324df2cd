package camera

import (
	"fmt"
	"path/filepath"
	"testing"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/photo"
	"irs/internal/watermark"
	"irs/internal/wire"
)

func newTestRig(t *testing.T, nonRevocable bool) (*Camera, *ledger.Ledger) {
	t.Helper()
	l, err := ledger.New(ledger.Config{ID: 4, NonRevocable: nonRevocable})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return New(&wire.Loopback{L: l}, "local://ledger-4", nil), l
}

func TestClaimAndLabel(t *testing.T) {
	cam, l := newTestRig(t, false)
	im := cam.Shoot(1, 192, 128)
	labeled, owned, err := cam.ClaimAndLabel(im)
	if err != nil {
		t.Fatal(err)
	}
	// Original untouched.
	if im.Meta.Has(photo.KeyIRSID) {
		t.Error("original image was labeled in place")
	}
	// Label present: metadata half.
	if labeled.Meta.Get(photo.KeyIRSID) != owned.ID.String() {
		t.Error("metadata label missing or wrong")
	}
	if labeled.Meta.Get(photo.KeyIRSLedgerURL) != "local://ledger-4" {
		t.Error("ledger URL label wrong")
	}
	// Label present: watermark half.
	res, err := watermark.ExtractAligned(labeled, watermark.DefaultConfig())
	if err != nil {
		t.Fatalf("watermark: %v", err)
	}
	if res.Payload != owned.ID.Bytes() {
		t.Error("watermark payload is not the claim id")
	}
	// Claim actually landed.
	claims, _ := l.Count()
	if claims != 1 {
		t.Errorf("ledger claims = %d", claims)
	}
	// Keystore holds the record.
	if len(cam.Store().List()) != 1 {
		t.Errorf("keystore len %d", len(cam.Store().List()))
	}
	got, ok := cam.Store().Get(owned.ID)
	if !ok || got.ContentHash != im.ContentHash() {
		t.Error("keystore record wrong")
	}
}

func TestAutoRevokeClaims(t *testing.T) {
	cam, l := newTestRig(t, false)
	cam.AutoRevoke = true
	im := cam.Shoot(2, 192, 128)
	_, owned, err := cam.ClaimAndLabel(im)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.Status(owned.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.State != ledger.StateRevoked {
		t.Errorf("auto-revoke claim state %v", p.State)
	}
	// Owner opts a photo in by unrevoking.
	if err := cam.Unrevoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	p, _ = l.Status(owned.ID)
	if p.State != ledger.StateActive {
		t.Errorf("after unrevoke: %v", p.State)
	}
}

func TestRevokeCycleViaCamera(t *testing.T) {
	cam, l := newTestRig(t, false)
	_, owned, err := cam.ClaimAndLabel(cam.Shoot(3, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := cam.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	if err := cam.Unrevoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	if err := cam.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	p, _ := l.Status(owned.ID)
	if p.State != ledger.StateRevoked {
		t.Errorf("state %v", p.State)
	}
}

func TestRevokeUnownedPhoto(t *testing.T) {
	cam, _ := newTestRig(t, false)
	other, _ := newTestRig(t, false)
	_, owned, err := other.ClaimAndLabel(other.Shoot(4, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := cam.Revoke(owned.ID); err != ErrNotOwned {
		t.Errorf("got %v, want ErrNotOwned", err)
	}
}

func TestAuditHealthyLedger(t *testing.T) {
	cam, _ := newTestRig(t, false)
	rep, err := cam.Audit(5)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy {
		t.Errorf("honest ledger failed audit: %v", rep.Failures)
	}
}

func TestAuditAutoRevokeMode(t *testing.T) {
	cam, _ := newTestRig(t, false)
	cam.AutoRevoke = true
	rep, err := cam.Audit(6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy {
		t.Errorf("audit with auto-revoke failed: %v", rep.Failures)
	}
}

func TestAuditCatchesNonRevocable(t *testing.T) {
	// A ledger refusing revocation must fail the probe — exactly the
	// §5 misbehaviour detection.
	cam, _ := newTestRig(t, true)
	rep, err := cam.Audit(7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy {
		t.Error("non-revoking ledger passed the audit")
	}
}

func TestKeyStorePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.json")
	l, err := ledger.New(ledger.Config{ID: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cam := New(&wire.Loopback{L: l}, "local://4", NewKeyStore(path))
	_, owned, err := cam.ClaimAndLabel(cam.Shoot(8, 192, 128))
	if err != nil {
		t.Fatal(err)
	}

	// Reload from disk into a fresh camera; it must be able to revoke.
	ks, err := LoadKeyStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.List()) != 1 {
		t.Fatalf("reloaded %d records", len(ks.List()))
	}
	got, ok := ks.Get(owned.ID)
	if !ok {
		t.Fatal("record missing after reload")
	}
	if got.ContentHash != owned.ContentHash {
		t.Error("content hash corrupted")
	}
	if got.Receipt.Timestamp == nil || got.Receipt.Timestamp.Digest != owned.ContentHash {
		t.Error("timestamp token corrupted")
	}
	cam2 := New(&wire.Loopback{L: l}, "local://4", ks)
	if err := cam2.Revoke(owned.ID); err != nil {
		t.Fatalf("revoke with reloaded keys: %v", err)
	}
}

func TestLoadKeyStoreMissingFile(t *testing.T) {
	ks, err := LoadKeyStore(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatalf("missing file should yield empty store: %v", err)
	}
	if len(ks.List()) != 0 {
		t.Error("nonempty store from missing file")
	}
}

func TestKeyStoreList(t *testing.T) {
	cam, _ := newTestRig(t, false)
	for i := int64(0); i < 3; i++ {
		if _, _, err := cam.ClaimAndLabel(cam.Shoot(10+i, 192, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(cam.Store().List()); got != 3 {
		t.Errorf("List() = %d ids", got)
	}
}

func TestLabelSurvivesStripViaWatermark(t *testing.T) {
	// The end-to-end Goal #5 property at the camera level: strip the
	// metadata, recover the id from pixels alone.
	cam, _ := newTestRig(t, false)
	labeled, owned, err := cam.ClaimAndLabel(cam.Shoot(20, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := photo.StripViaPNM(photo.CompressJPEGLike(labeled, 80))
	if err != nil {
		t.Fatal(err)
	}
	if stripped.Meta.HasIRSLabel() {
		t.Fatal("strip failed")
	}
	res, err := watermark.ExtractAligned(stripped, watermark.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Payload != owned.ID.Bytes() {
		t.Error("id lost after strip+compress")
	}
}

// BenchmarkLabel is what one custodial commit spends on the image
// itself: watermark.Embed plus the two metadata fields.
func BenchmarkLabel(b *testing.B) {
	cfg := watermark.DefaultConfig()
	id := ids.PhotoID{Ledger: 1, Rec: [12]byte{42}}
	for _, dims := range [][2]int{{192, 128}, {1024, 768}} {
		im := photo.Synth(1, dims[0], dims[1])
		b.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Label(im, id, "http://ledger.example", cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
