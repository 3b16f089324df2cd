// Package threats walks the paper's §5 ("Direct Attacks and Unintended
// Consequences") attack by attack, as executable claims. Each test
// names the paper's scenario, mounts the attack against the real stack,
// and asserts the outcome the paper predicts — including the attacks
// that succeed (the paper is explicit about what IRS does NOT stop).
package threats

import (
	"testing"
	"time"

	"irs/internal/aggregator"
	"irs/internal/appeals"
	"irs/internal/camera"
	"irs/internal/core"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/photo"
	"irs/internal/watermark"
	"irs/internal/wire"
)

// §5 "Direct Attacks": "A relatively naive attacker could insert
// incorrect metadata and/or apply enough cropping and/or distortion to
// render the watermark unreadable. This would render the picture
// unsharable, which is self-defeating."
func TestNaiveManglerIsSelfDefeating(t *testing.T) {
	sys, err := core.Build(core.Spec{Ledgers: []ledger.Config{{ID: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	alice, err := sys.NewOwner(1)
	if err != nil {
		t.Fatal(err)
	}
	labeled, owned, err := alice.ClaimAndLabel(alice.Shoot(1, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	if err := sys.RefreshFilters(); err != nil {
		t.Fatal(err)
	}
	agg, err := sys.NewAggregator(aggregator.Config{Name: "site"}, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Attack A: wrong metadata (mismatching the watermark) — unsharable.
	bogusID, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	mangled := labeled.Clone()
	mangled.Meta.Set(photo.KeyIRSID, bogusID.String())
	if res, err := agg.Upload(mangled); err != nil || res.Accepted {
		t.Errorf("metadata mangling got hosted: %+v %v", res, err)
	}

	// Attack B: watermark erased, metadata intact — still points at the
	// revoked claim; unsharable AND unviewable.
	erased, err := watermark.Erase(labeled, watermark.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := agg.Upload(erased); err != nil || res.Accepted {
		t.Errorf("erased-watermark copy got hosted: %+v %v", res, err)
	}
	if dec := sys.View(erased); dec.Display {
		t.Errorf("erased-watermark copy displayed: %+v", dec)
	}

	// Attack C: everything stripped — partial/absent label, unsharable.
	stripped, err := photo.StripViaPNM(erased)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := agg.Upload(stripped); err != nil || res.Accepted {
		t.Errorf("fully stripped copy got hosted: %+v %v", res, err)
	}
}

// §5: "a more sophisticated attacker could claim the picture ...
// IRS cannot prevent or detect this automatically ... but must rely on
// the aforementioned appeals process." Both halves asserted.
func TestSophisticatedReclaimerBeatsAutomationLosesAppeal(t *testing.T) {
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	sys, err := core.Build(core.Spec{Ledgers: []ledger.Config{{ID: 1}, {ID: 2}}, Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	victim, err := sys.NewOwner(1)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := sys.NewOwner(2)
	if err != nil {
		t.Fatal(err)
	}
	orig := victim.Shoot(2, 192, 128)
	labeled, owned, err := victim.ClaimAndLabel(orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Hour)
	stolen, err := watermark.Erase(labeled, watermark.DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	stolen.Meta.StripAll()
	attackCopy, attackOwned, err := attacker.ClaimAndLabel(stolen)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RefreshFilters(); err != nil {
		t.Fatal(err)
	}
	// Half 1: the attack WORKS against automation.
	if dec := sys.View(attackCopy); !dec.Display {
		t.Fatalf("paper says automation cannot stop the re-claim, but view was blocked: %+v", dec)
	}
	// Half 2: the appeals process kills it.
	adj, err := sys.NewAdjudicator(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := adj.Decide(&appeals.Complaint{
		Original:       orig,
		OriginalToken:  owned.Receipt.Timestamp,
		OriginalLedger: 1,
		Copy:           attackCopy,
		ContestedID:    attackOwned.ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != appeals.Upheld {
		t.Fatalf("appeal: %v (%s)", v.Outcome, v.Detail)
	}
	if err := sys.RefreshFilters(); err != nil {
		t.Fatal(err)
	}
	if dec := sys.View(attackCopy); dec.Display {
		t.Errorf("copy still displays after upheld appeal: %+v", dec)
	}
}

// §5 "Enabling Censorship?": "nonprofit groups could create ledgers for
// specific types of photos ... These ledgers could register photos and
// not allow their revocation (and would deny the appeals process if it
// appeared the appeal was done under duress)."
func TestCensorshipResistantLedger(t *testing.T) {
	sys, err := core.Build(core.Spec{Ledgers: []ledger.Config{{ID: 1}, {ID: 2, NonRevocable: true}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	journalist, err := sys.NewOwner(2)
	if err != nil {
		t.Fatal(err)
	}
	evidence, owned, err := journalist.ClaimAndLabel(journalist.Shoot(3, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RefreshFilters(); err != nil {
		t.Fatal(err)
	}
	// Coerced revocation fails...
	if err := journalist.Revoke(owned.ID); err == nil {
		t.Fatal("coerced revocation succeeded on the human-rights ledger")
	}
	// ...a coerced appeal fails...
	l2, err := sys.Ledger(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.PermanentRevoke(owned.ID); err == nil {
		t.Fatal("appeals-path revocation succeeded on the human-rights ledger")
	}
	// ...and the material stays viewable.
	if dec := sys.View(evidence); !dec.Display {
		t.Errorf("evidence blocked: %+v", dec)
	}
}

// lyingService wraps a ledger service and misreports status — §5's
// "Malicious Ledgers? Ledgers could misbehave in various ways (e.g.,
// answering queries incorrectly, not responding to an owner's request
// to revoke ...)".
type lyingService struct {
	wire.Service
	lieState ledger.State
}

func (s *lyingService) Status(id ids.PhotoID) (*ledger.StatusProof, error) {
	p, err := s.Service.Status(id)
	if err != nil {
		return nil, err
	}
	forged := *p
	forged.State = s.lieState
	return &forged, nil
}

// ignoringService accepts ops but never applies them.
type ignoringService struct {
	wire.Service
}

func (s *ignoringService) Apply(ids.PhotoID, ledger.Op, uint64, []byte) error {
	return nil // "sure, revoked" — but nothing happened
}

// §5: "the automated software that claims photos on behalf of owners
// could periodically send probes to ledgers to ensure that they are
// being answered correctly."
func TestProbesCatchMaliciousLedgers(t *testing.T) {
	l, err := ledger.New(ledger.Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// A ledger that reports everything active (hiding revocations).
	liar := &lyingService{Service: &wire.Loopback{L: l}, lieState: ledger.StateActive}
	cam := camera.New(liar, "irs://liar", nil)
	rep, err := cam.Audit(4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy {
		t.Error("always-active liar passed the audit")
	}

	// A ledger that silently drops revocation requests.
	dropper := &ignoringService{Service: &wire.Loopback{L: l}}
	cam2 := camera.New(dropper, "irs://dropper", nil)
	rep, err = cam2.Audit(5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy {
		t.Error("revocation-dropping ledger passed the audit")
	}

	// And the honest ledger passes, so the audit isn't just paranoid.
	honest := camera.New(&wire.Loopback{L: l}, "irs://honest", nil)
	rep, err = honest.Audit(6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy {
		t.Errorf("honest ledger failed: %v", rep.Failures)
	}
}

// Forged status proofs (a man-in-the-middle "unrevoking" a photo) must
// fail verification — the reason proofs are signed at all.
func TestForgedProofRejected(t *testing.T) {
	l, err := ledger.New(ledger.Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cam := camera.New(&wire.Loopback{L: l}, "irs://1", nil)
	_, owned, err := cam.ClaimAndLabel(cam.Shoot(7, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := cam.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	p, err := l.Status(owned.ID)
	if err != nil {
		t.Fatal(err)
	}
	forged := *p
	forged.State = ledger.StateActive
	if err := ledger.VerifyProof(l.SigningKey(), &forged, time.Now(), time.Hour); err == nil {
		t.Fatal("forged active proof verified")
	}
}
