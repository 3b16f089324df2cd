package aggregator

import (
	"sync"
	"testing"
	"time"

	"irs/internal/camera"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/photo"
	"irs/internal/watermark"
	"irs/internal/wire"
)

// rig wires an owner ledger, a custodial ledger, a camera, and an
// aggregator together in-process.
type rig struct {
	ownerLedger *ledger.Ledger
	custLedger  *ledger.Ledger
	cam         *camera.Camera
	agg         *Aggregator
	dir         *wire.Directory
}

func newRig(t *testing.T, policy UnlabeledPolicy, clock func() time.Time) *rig {
	t.Helper()
	cfgClock := clock
	ol, err := ledger.New(ledger.Config{ID: 1, Clock: cfgClock})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := ledger.New(ledger.Config{ID: 2, Clock: cfgClock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ol.Close(); cl.Close() })
	dir := wire.NewDirectory()
	dir.Register(1, &wire.Loopback{L: ol})
	dir.Register(2, &wire.Loopback{L: cl})
	agg, err := New(Config{
		Name:               "photosite",
		Unlabeled:          policy,
		CustodialLedger:    &wire.Loopback{L: cl},
		CustodialLedgerURL: "local://2",
		Clock:              clock,
		RecheckInterval:    time.Hour,
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		ownerLedger: ol,
		custLedger:  cl,
		cam:         camera.New(&wire.Loopback{L: ol}, "local://1", nil),
		agg:         agg,
		dir:         dir,
	}
}

func TestUploadLabeledActive(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	labeled, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(1, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.agg.Upload(labeled)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.ID != owned.ID {
		t.Fatalf("upload result %+v", res)
	}
	if !r.agg.Hosts(owned.ID) {
		t.Error("photo not hosted")
	}

	served, err := r.agg.Serve(owned.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw := served.Meta.Get(photo.KeyIRSProof)
	if raw == "" {
		t.Fatal("served photo missing freshness proof")
	}
	proof, err := ledger.UnmarshalProof([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if proof.State != ledger.StateActive {
		t.Errorf("proof state %v", proof.State)
	}
	if err := ledger.VerifyProof(r.ownerLedger.SigningKey(), proof, time.Now(), time.Hour); err != nil {
		t.Errorf("served proof does not verify: %v", err)
	}
}

func TestUploadRevokedDenied(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	labeled, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(2, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.cam.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	res, err := r.agg.Upload(labeled)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.Reason != DenyRevoked {
		t.Errorf("result %+v, want DenyRevoked", res)
	}
}

func TestUploadFabricatedLabelDenied(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	// Consistent label pointing at a claim that doesn't exist.
	fake, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	im := photo.Synth(3, 192, 128)
	labeled, err := camera.Label(im, fake, "local://1", watermark.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.agg.Upload(labeled)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.Reason != DenyUnknownClaim {
		t.Errorf("result %+v, want DenyUnknownClaim", res)
	}
}

func TestUploadLabelMismatchDenied(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	labeled, _, err := r.cam.ClaimAndLabel(r.cam.Shoot(4, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	// Swap the metadata half for a different identifier.
	other, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	tampered := labeled.Clone()
	tampered.Meta.Set(photo.KeyIRSID, other.String())
	res, err := r.agg.Upload(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.Reason != DenyLabelMismatch {
		t.Errorf("result %+v, want DenyLabelMismatch", res)
	}
}

func TestUploadPartialLabelDenied(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	labeled, _, err := r.cam.ClaimAndLabel(r.cam.Shoot(5, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	// Metadata stripped, watermark still present.
	stripped, err := photo.StripViaPNM(labeled)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.agg.Upload(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.Reason != DenyPartialLabel {
		t.Errorf("stripped metadata: %+v, want DenyPartialLabel", res)
	}
	// Metadata present, watermark missing.
	bare := photo.Synth(6, 192, 128)
	id, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	bare.Meta.Set(photo.KeyIRSID, id.String())
	bare.Meta.Set(photo.KeyIRSLedgerURL, "local://1")
	res, err = r.agg.Upload(bare)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.Reason != DenyPartialLabel {
		t.Errorf("metadata only: %+v, want DenyPartialLabel", res)
	}
}

func TestUploadUnlabeledRejectPolicy(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	res, err := r.agg.Upload(photo.Synth(7, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.Reason != DenyUnlabeled {
		t.Errorf("result %+v, want DenyUnlabeled", res)
	}
}

func TestUploadUnlabeledCustodialPolicy(t *testing.T) {
	r := newRig(t, CustodialClaim, nil)
	res, err := r.agg.Upload(photo.Synth(8, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || !res.Custodial {
		t.Fatalf("result %+v, want custodial accept", res)
	}
	if res.ID.Ledger != 2 {
		t.Errorf("custodial claim went to ledger %d, want 2", res.ID.Ledger)
	}
	// The custodial claim exists and is active.
	rec, err := r.custLedger.Record(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Custodial {
		t.Error("claim not flagged custodial")
	}
	// The served photo is now labeled (metadata + watermark).
	served, err := r.agg.Serve(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if served.Meta.Get(photo.KeyIRSID) != res.ID.String() {
		t.Error("served custodial photo missing metadata label")
	}
	wm, err := watermark.ExtractAligned(served, watermark.DefaultConfig())
	if err != nil {
		t.Fatalf("custodial watermark: %v", err)
	}
	if wm.Payload != res.ID.Bytes() {
		t.Error("custodial watermark wrong")
	}
	// The aggregator holds the key and can revoke after an appeal.
	if _, ok := r.agg.CustodialKeys().Get(res.ID); !ok {
		t.Error("custodial key not retained")
	}
}

func TestDerivativeRelabeledDenied(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	labeled, _, err := r.cam.ClaimAndLabel(r.cam.Shoot(9, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := r.agg.Upload(labeled); err != nil || !res.Accepted {
		t.Fatalf("first upload: %+v %v", res, err)
	}
	// Attacker takes the hosted photo, erases the label, re-claims under
	// their own key, and relabels. The robust-hash database must notice.
	cfg := watermark.DefaultConfig()
	erased, err := watermark.Erase(labeled, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	attackerCam := camera.New(&wire.Loopback{L: r.ownerLedger}, "local://1", nil)
	relabeled, _, err := attackerCam.ClaimAndLabel(erased)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.agg.Upload(relabeled)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.Reason != DenyDerivativeRelabeled {
		t.Errorf("result %+v, want DenyDerivativeRelabeled", res)
	}
}

// TestTakeDownClearsHashDB is the regression test for the hash-DB
// leak: TakeDown removed the photo but left its robust-hash entries
// behind, so derivative lookups kept resolving to the dead identifier
// and legitimately re-claimed uploads of the same content were denied
// forever.
func TestTakeDownClearsHashDB(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	labeled, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(77, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := r.agg.Upload(labeled); err != nil || !res.Accepted {
		t.Fatalf("first upload: %+v %v", res, err)
	}
	// A relabeled copy of hosted content is a derivative — denied.
	cfg := watermark.DefaultConfig()
	erased, err := watermark.Erase(labeled, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	otherCam := camera.New(&wire.Loopback{L: r.ownerLedger}, "local://1", nil)
	relabeled, reclaimed, err := otherCam.ClaimAndLabel(erased)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := r.agg.Upload(relabeled); err != nil || res.Reason != DenyDerivativeRelabeled {
		t.Fatalf("pre-takedown derivative upload: %+v %v", res, err)
	}
	// The original is taken down (site-level appeal). Its hash-DB
	// entries must go with it: the re-claimed copy now has the only
	// live claim on this content and must be accepted.
	if !r.agg.TakeDown(owned.ID) {
		t.Fatal("takedown failed")
	}
	res, err := r.agg.Upload(relabeled)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("post-takedown upload denied: %+v — hash-DB entry leaked past takedown", res)
	}
	if res.ID != reclaimed.ID {
		t.Errorf("hosted under %v, want %v", res.ID, reclaimed.ID)
	}
}

// TestRecheckAllClearsHashDB covers the same leak through the periodic
// recheck path: a revocation-driven takedown must also drop the
// photo's hash-DB entries.
func TestRecheckAllClearsHashDB(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	labeled, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(78, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := r.agg.Upload(labeled); err != nil || !res.Accepted {
		t.Fatalf("upload: %+v %v", res, err)
	}
	if err := r.cam.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	if down, err := r.agg.RecheckAll(); err != nil || down != 1 {
		t.Fatalf("recheck: %d %v", down, err)
	}
	erased, err := watermark.Erase(labeled, watermark.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	otherCam := camera.New(&wire.Loopback{L: r.ownerLedger}, "local://1", nil)
	relabeled, _, err := otherCam.ClaimAndLabel(erased)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.agg.Upload(relabeled)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("post-recheck upload denied: %+v — hash-DB entry leaked past recheck takedown", res)
	}
}

func TestRecheckTakesDownRevoked(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	labeled, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(10, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := r.agg.Upload(labeled); err != nil || !res.Accepted {
		t.Fatalf("upload: %+v %v", res, err)
	}
	// Owner revokes after the fact — the core IRS promise.
	if err := r.cam.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	down, err := r.agg.RecheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if down != 1 {
		t.Errorf("took down %d, want 1", down)
	}
	if r.agg.Hosts(owned.ID) {
		t.Error("revoked photo still hosted")
	}
	if _, err := r.agg.Serve(owned.ID); err != ErrNotHosted {
		t.Errorf("serve after takedown: %v", err)
	}
}

// takeDownFirst answers StatusBatch only after taking another photo
// down, as a site-level appeal landing mid-pass would.
type takeDownFirst struct {
	wire.Service
	agg   *Aggregator
	other ids.PhotoID
}

func (s *takeDownFirst) StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	s.agg.TakeDown(s.other)
	return s.Service.StatusBatch(batch)
}

// TestRecheckCountsOnlyItsOwnTakedowns: RecheckAll reports the photos
// its own pass removed, not every takedown that lands while it runs.
func TestRecheckCountsOnlyItsOwnTakedowns(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	var hosted []ids.PhotoID
	for seed := int64(30); seed < 32; seed++ {
		labeled, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(seed, 192, 128))
		if err != nil {
			t.Fatal(err)
		}
		if res, err := r.agg.Upload(labeled); err != nil || !res.Accepted {
			t.Fatalf("upload: %+v %v", res, err)
		}
		hosted = append(hosted, owned.ID)
	}
	if err := r.cam.Revoke(hosted[0]); err != nil {
		t.Fatal(err)
	}
	r.dir.Register(1, &takeDownFirst{Service: &wire.Loopback{L: r.ownerLedger}, agg: r.agg, other: hosted[1]})
	down, err := r.agg.RecheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if down != 1 {
		t.Errorf("RecheckAll reported %d takedowns, want 1 (the revoked photo; the other was an appeal's)", down)
	}
	if got := r.agg.MetricsSnapshot().TakenDown; got != 2 {
		t.Errorf("TakenDown metric %d, want 2", got)
	}
}

func TestServeRevalidatesStaleProof(t *testing.T) {
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	r := newRig(t, RejectUnlabeled, clock)
	labeled, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(11, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := r.agg.Upload(labeled); err != nil || !res.Accepted {
		t.Fatalf("upload: %+v %v", res, err)
	}
	if err := r.cam.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	// Within the proof window the stale proof still serves (bounded
	// staleness is Nongoal #4)...
	if _, err := r.agg.Serve(owned.ID); err != nil {
		t.Fatalf("serve within window: %v", err)
	}
	// ...but past it, Serve revalidates and takes the photo down.
	now = now.Add(2 * time.Hour)
	if _, err := r.agg.Serve(owned.ID); err != ErrTakenDown {
		t.Errorf("stale serve: %v, want ErrTakenDown", err)
	}
	if r.agg.Hosts(owned.ID) {
		t.Error("photo still hosted after stale revalidation")
	}
}

func TestMetrics(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	labeled, _, err := r.cam.ClaimAndLabel(r.cam.Shoot(12, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.agg.Upload(labeled); err != nil {
		t.Fatal(err)
	}
	if _, err := r.agg.Upload(photo.Synth(13, 192, 128)); err != nil {
		t.Fatal(err)
	}
	m := r.agg.MetricsSnapshot()
	if m.Uploads != 2 || m.Accepted != 1 || m.Denied[DenyUnlabeled] != 1 {
		t.Errorf("metrics %+v", m)
	}
	if r.agg.HostedCount() != 1 {
		t.Errorf("hosted %d", r.agg.HostedCount())
	}
}

func TestCustodialPolicyRequiresLedger(t *testing.T) {
	if _, err := New(Config{Unlabeled: CustodialClaim}, wire.NewDirectory()); err == nil {
		t.Error("custodial policy without ledger accepted")
	}
}

func TestDenyReasonStrings(t *testing.T) {
	for r, want := range map[DenyReason]string{
		DenyNone: "accepted", DenyRevoked: "revoked", DenyUnlabeled: "unlabeled",
		DenyLabelMismatch: "label-mismatch", DenyPartialLabel: "partial-label",
		DenyUnknownClaim: "unknown-claim", DenyDerivativeRelabeled: "derivative-relabeled",
		DenyLedgerUnreachable: "ledger-unreachable",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
}

func TestDerivativeWithTransferredLabelRevokesWithOriginal(t *testing.T) {
	// §3.2: derivatives that carry the original metadata are "also
	// revoked if the original is revoked".
	r := newRig(t, RejectUnlabeled, nil)
	labeled, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(60, 256, 160))
	if err != nil {
		t.Fatal(err)
	}
	cropped, err := photo.CropFraction(labeled, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	meme := photo.Tint(cropped, 1.1, 8)
	res, err := r.agg.Upload(meme)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.ID != owned.ID {
		t.Fatalf("derivative upload: %+v", res)
	}
	if err := r.cam.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	down, err := r.agg.RecheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if down != 1 || r.agg.Hosts(owned.ID) {
		t.Errorf("derivative survived the original's revocation (down=%d)", down)
	}
}

func TestConcurrentUploadsAndRechecks(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	const n = 12
	type claimRec struct {
		img *photo.Image
	}
	photos := make([]claimRec, n)
	for i := range photos {
		labeled, _, err := r.cam.ClaimAndLabel(r.cam.Shoot(int64(100+i), 192, 128))
		if err != nil {
			t.Fatal(err)
		}
		photos[i] = claimRec{img: labeled}
	}
	var wg sync.WaitGroup
	for i := range photos {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if res, err := r.agg.Upload(photos[i].img); err != nil || !res.Accepted {
				t.Errorf("upload %d: %+v %v", i, res, err)
			}
		}(i)
		if i%3 == 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := r.agg.RecheckAll(); err != nil {
					t.Errorf("recheck: %v", err)
				}
			}()
		}
	}
	wg.Wait()
	if r.agg.HostedCount() != n {
		t.Errorf("hosted %d, want %d", r.agg.HostedCount(), n)
	}
}

func TestLargeUploadSkipsFullSearch(t *testing.T) {
	// A multi-megapixel unlabeled upload must be processed in bounded
	// time: the full geometric watermark search is skipped above the
	// pixel budget, and the upload falls to the unlabeled path.
	r := newRig(t, RejectUnlabeled, nil)
	big := photo.Synth(70, 1024, 768) // 0.79 MP, above the 0.26 MP budget
	start := time.Now()
	res, err := r.agg.Upload(big)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || res.Reason != DenyUnlabeled {
		t.Errorf("big unlabeled upload: %+v", res)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("big upload took %v — full search not skipped?", elapsed)
	}
	// Aligned (unmodified) big uploads still work end to end.
	labeled, owned, err := r.cam.ClaimAndLabel(big)
	if err != nil {
		t.Fatal(err)
	}
	res, err = r.agg.Upload(labeled)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.ID != owned.ID {
		t.Errorf("big labeled upload: %+v", res)
	}
}
