package core

import (
	"testing"
	"time"

	"irs/internal/aggregator"
	"irs/internal/appeals"
	"irs/internal/camera"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/photo"
	"irs/internal/proxy"
	"irs/internal/watermark"
)

// ledgers configures n in-memory ledgers with IDs 1..n.
func ledgers(n int) []ledger.Config {
	cfgs := make([]ledger.Config, n)
	for i := range cfgs {
		cfgs[i].ID = ids.LedgerID(i + 1)
	}
	return cfgs
}

func build(t *testing.T, spec Spec) *System {
	t.Helper()
	s, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSystemValidation(t *testing.T) {
	if _, err := Build(Spec{}); err == nil {
		t.Error("zero ledgers accepted")
	}
	if _, err := Build(Spec{Ledgers: []ledger.Config{{ID: 1}, {ID: 1}}}); err == nil {
		t.Error("duplicate ledger accepted")
	}
	if _, err := Build(Spec{Ledgers: ledgers(1), Remote: Endpoints{1: "http://127.0.0.1:1"}}); err == nil {
		t.Error("ledger both local and remote accepted")
	}
	s := build(t, Spec{Ledgers: ledgers(1)})
	if _, err := s.Ledger(9); err == nil {
		t.Error("unknown ledger returned")
	}
	if _, err := s.NewOwner(9); err == nil {
		t.Error("owner on unknown ledger accepted")
	}
	if _, err := s.NewAdjudicator(9, nil); err == nil {
		t.Error("adjudicator on unknown ledger accepted")
	}
}

func TestClaimShareRevokeView(t *testing.T) {
	// The headline lifecycle: claim → share → view OK → revoke →
	// refresh → view blocked.
	s := build(t, Spec{Ledgers: ledgers(2)})
	alice, err := s.NewOwner(1)
	if err != nil {
		t.Fatal(err)
	}
	labeled, owned, err := alice.ClaimAndLabel(alice.Shoot(1, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RefreshFilters(); err != nil {
		t.Fatal(err)
	}

	dec := s.View(labeled)
	if !dec.Display || dec.ID != owned.ID {
		t.Fatalf("pre-revocation view: %+v", dec)
	}
	// Not revoked → the filter answers locally, no ledger query.
	if dec.Source != proxy.SourceFilter {
		t.Errorf("active view answered from %v, want filter", dec.Source)
	}

	if err := alice.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.RefreshFilters(); err != nil {
		t.Fatal(err)
	}
	dec = s.View(labeled)
	if dec.Display {
		t.Fatalf("revoked photo displayed: %+v", dec)
	}
	if dec.Reason != "revoked" {
		t.Errorf("reason %q", dec.Reason)
	}
}

func TestViewStrippedMetadataUsesWatermark(t *testing.T) {
	s := build(t, Spec{Ledgers: ledgers(1)})
	alice, err := s.NewOwner(1)
	if err != nil {
		t.Fatal(err)
	}
	labeled, owned, err := alice.ClaimAndLabel(alice.Shoot(2, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.RefreshFilters(); err != nil {
		t.Fatal(err)
	}
	stripped, err := photo.StripViaPNM(labeled)
	if err != nil {
		t.Fatal(err)
	}
	dec := s.View(stripped)
	if dec.Display {
		t.Fatal("metadata strip defeated the extension — watermark fallback broken")
	}
	if dec.ID != owned.ID {
		t.Errorf("recovered id %v, want %v", dec.ID, owned.ID)
	}
}

func TestViewUnlabeledDisplays(t *testing.T) {
	s := build(t, Spec{Ledgers: ledgers(1)})
	dec := s.View(photo.Synth(3, 192, 128))
	if !dec.Display || dec.Reason != "unlabeled" {
		t.Errorf("unlabeled view: %+v", dec)
	}
}

func TestMultiLedgerRouting(t *testing.T) {
	s := build(t, Spec{Ledgers: ledgers(3)})
	for lid := ids.LedgerID(1); lid <= 3; lid++ {
		owner, err := s.NewOwner(lid)
		if err != nil {
			t.Fatal(err)
		}
		labeled, owned, err := owner.ClaimAndLabel(owner.Shoot(int64(lid), 192, 128))
		if err != nil {
			t.Fatal(err)
		}
		if owned.ID.Ledger != lid {
			t.Fatalf("claim landed on ledger %d, want %d", owned.ID.Ledger, lid)
		}
		if dec := s.View(labeled); !dec.Display {
			t.Fatalf("ledger %d view: %+v", lid, dec)
		}
	}
}

func TestNonRevocableLedgerOption(t *testing.T) {
	s := build(t, Spec{Ledgers: []ledger.Config{{ID: 1}, {ID: 2, NonRevocable: true}}})
	rights, err := s.NewOwner(2)
	if err != nil {
		t.Fatal(err)
	}
	_, owned, err := rights.ClaimAndLabel(rights.Shoot(4, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := rights.Revoke(owned.ID); err == nil {
		t.Error("revocation succeeded on non-revocable ledger")
	}
}

func TestFullPipelineWithAggregatorAndAppeal(t *testing.T) {
	// The complete paper scenario in one integration test:
	// 1. Alice claims and shares a photo.
	// 2. It is uploaded to an aggregator and served.
	// 3. Alice revokes; the aggregator's recheck takes it down.
	// 4. An attacker re-claims a copy; the appeal kills it.
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	s := build(t, Spec{Ledgers: ledgers(2), Clock: clock})
	alice, err := s.NewOwner(1)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := s.NewAggregator(aggregator.Config{Name: "photosite"}, 2)
	if err != nil {
		t.Fatal(err)
	}

	labeled, owned, err := alice.ClaimAndLabel(alice.Shoot(5, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	res, err := agg.Upload(labeled)
	if err != nil || !res.Accepted {
		t.Fatalf("upload: %+v %v", res, err)
	}
	if _, err := agg.Serve(owned.ID); err != nil {
		t.Fatal(err)
	}

	if err := alice.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	down, err := agg.RecheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if down != 1 || agg.Hosts(owned.ID) {
		t.Fatalf("recheck removed %d", down)
	}

	// Attacker re-claims on ledger 2 an hour later.
	now = now.Add(time.Hour)
	attacker, err := s.NewOwner(2)
	if err != nil {
		t.Fatal(err)
	}
	stolen, err := watermark.Erase(labeled, watermark.DefaultConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	stolen.Meta.StripAll()
	attackLabeled, attackOwned, err := attacker.ClaimAndLabel(stolen)
	if err != nil {
		t.Fatal(err)
	}
	// The attack works: the re-claimed copy uploads fine. (The
	// robust-hash derivative defense doesn't trigger because the
	// original was already taken down; a fresh aggregator hosts it.)
	res, err = agg.Upload(attackLabeled)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		// Acceptable alternative: the hash DB still remembers the
		// original and denies. Either way the appeal path must work.
		t.Logf("upload denied by derivative defense: %v", res.Reason)
	}

	adj, err := s.NewAdjudicator(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	orig := alice.Shoot(5, 192, 128) // deterministic: same pixels as claimed
	v, err := adj.Decide(&appeals.Complaint{
		Original:       orig,
		OriginalToken:  owned.Receipt.Timestamp,
		OriginalLedger: 1,
		Copy:           attackLabeled,
		ContestedID:    attackOwned.ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome != appeals.Upheld {
		t.Fatalf("appeal verdict %v (%s)", v.Outcome, v.Detail)
	}
	l2, err := s.Ledger(2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l2.Status(attackOwned.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.State != ledger.StatePermanentlyRevoked {
		t.Errorf("attack claim state %v", p.State)
	}
	// And the extension now blocks the attacker's copy everywhere.
	if err := s.RefreshFilters(); err != nil {
		t.Fatal(err)
	}
	if dec := s.View(attackLabeled); dec.Display {
		t.Errorf("permanently revoked copy still displays: %+v", dec)
	}
}

func TestPersistentSystemRecovers(t *testing.T) {
	dir := t.TempDir()
	var savedID ids.PhotoID
	{
		s, err := Build(Spec{Ledgers: []ledger.Config{{ID: 1, Dir: dir}}})
		if err != nil {
			t.Fatal(err)
		}
		alice, err := s.NewOwner(1)
		if err != nil {
			t.Fatal(err)
		}
		_, owned, err := alice.ClaimAndLabel(alice.Shoot(6, 192, 128))
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.Revoke(owned.ID); err != nil {
			t.Fatal(err)
		}
		savedID = owned.ID
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Build(Spec{Ledgers: []ledger.Config{{ID: 1, Dir: dir}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, err := s.Ledger(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.Status(savedID)
	if err != nil {
		t.Fatal(err)
	}
	if p.State != ledger.StateRevoked {
		t.Errorf("recovered state %v", p.State)
	}
}

func TestBrowserResidentFilter(t *testing.T) {
	// §4.4 early-adoption option: the filter lives in the browser, so
	// not-revoked views never even reach the proxy.
	s := build(t, Spec{Ledgers: ledgers(1), BrowserFilter: true})
	alice, err := s.NewOwner(1)
	if err != nil {
		t.Fatal(err)
	}
	active, activeOwned, err := alice.ClaimAndLabel(alice.Shoot(40, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	_ = activeOwned
	revokedImg, revokedOwned, err := alice.ClaimAndLabel(alice.Shoot(41, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Revoke(revokedOwned.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.RefreshFilters(); err != nil {
		t.Fatal(err)
	}

	// Viewing the active photo many times must generate zero proxy
	// traffic: the browser's own filter answers.
	for i := 0; i < 20; i++ {
		if dec := s.View(active); !dec.Display {
			t.Fatalf("active view blocked: %+v", dec)
		}
	}
	if q := s.ProxyQueries(); q != 0 {
		t.Errorf("active views reached the proxy %d times; browser filter should absorb them", q)
	}
	// The revoked photo hits the browser filter and goes through the
	// proxy to a real answer.
	dec := s.View(revokedImg)
	if dec.Display {
		t.Fatalf("revoked photo displayed: %+v", dec)
	}
	if q := s.ProxyQueries(); q == 0 {
		t.Error("revoked view never reached the proxy")
	}
}

func TestViewValidationFailureDefaultDeny(t *testing.T) {
	// A labeled photo pointing at a ledger this system doesn't know:
	// validation cannot complete, so the extension must not display
	// (Goal #3's default-deny posture).
	s := build(t, Spec{Ledgers: ledgers(1)})
	foreign, err := ids.New(42) // ledger 42 is not in the directory
	if err != nil {
		t.Fatal(err)
	}
	im := photo.Synth(50, 192, 128)
	labeled, err := camera.Label(im, foreign, "irs://ledger/42", watermark.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dec := s.View(labeled)
	if dec.Display {
		t.Fatalf("unverifiable photo displayed: %+v", dec)
	}
	if dec.ID != foreign {
		t.Errorf("decision id %v", dec.ID)
	}
}
