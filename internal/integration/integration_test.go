// Package integration exercises the full IRS stack the way a deployment
// would run it: every interaction over real HTTP, multiple ledgers,
// cameras, proxies, aggregators, the relay, and the appeals process —
// plus the failure modes (dead ledgers, stale filters) that unit tests
// cannot see.
package integration

import (
	"net"
	"net/http"
	"testing"
	"time"

	"irs/internal/aggregator"
	"irs/internal/appeals"
	"irs/internal/camera"
	"irs/internal/core"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/proxy"
	"irs/internal/relay"
	"irs/internal/watermark"
	"irs/internal/wire"
)

// deployment is a two-ledger HTTP-wired IRS installation.
type deployment struct {
	sys   *core.System
	clock *time.Time
}

func newDeployment(t *testing.T, adminToken string) *deployment {
	t.Helper()
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	d := &deployment{clock: &now}
	sys, err := core.Build(core.Spec{
		Ledgers:    []ledger.Config{{ID: 1}, {ID: 2}},
		HTTP:       true,
		Proxy:      &proxy.Config{UseFilter: true, CacheCapacity: 1024},
		AdminToken: adminToken,
		Clock:      func() time.Time { return *d.clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	d.sys = sys
	return d
}

func (d *deployment) ledger(t *testing.T, lid ids.LedgerID) *ledger.Ledger {
	t.Helper()
	l, err := d.sys.Ledger(lid)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func (d *deployment) refresh(t *testing.T) {
	t.Helper()
	for _, lid := range []ids.LedgerID{1, 2} {
		if _, err := d.ledger(t, lid).BuildSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(d.sys.ProxyURL()+"/v1/refresh", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh status %d", resp.StatusCode)
	}
}

func (d *deployment) camera(t *testing.T, lid ids.LedgerID) *camera.Camera {
	t.Helper()
	cam, err := d.sys.NewOwner(lid)
	if err != nil {
		t.Fatal(err)
	}
	return cam
}

func TestAppealEntirelyOverHTTP(t *testing.T) {
	// The §5 attack and its remedy, with every hop on the wire —
	// including the admin-token-guarded permanent revocation.
	d := newDeployment(t, "admin-sekrit")
	victim := d.camera(t, 1)
	attacker := d.camera(t, 2)

	orig := victim.Shoot(1, 192, 128)
	labeled, owned, err := victim.ClaimAndLabel(orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	*d.clock = d.clock.Add(time.Hour)

	stolen, err := watermark.Erase(labeled, watermark.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	stolen.Meta.StripAll()
	attackCopy, attackOwned, err := attacker.ClaimAndLabel(stolen)
	if err != nil {
		t.Fatal(err)
	}

	// Adjudication runs at ledger 2 (in-process, as the ledger
	// operator), but the resulting permanent revocation is also
	// exercised through the HTTP admin endpoint to prove the wire path.
	adj, err := d.sys.NewAdjudicator(2, nil)
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
		t.Fatalf("verdict %v (%s)", v.Outcome, v.Detail)
	}
	// Admin endpoint: revoking an already-permanently-revoked claim is
	// idempotent at the HTTP layer.
	adminClient := wire.NewClient(d.sys.URL(2), "admin-sekrit")
	if err := adminClient.PermanentRevoke(attackOwned.ID); err != nil {
		t.Fatalf("admin revoke over HTTP: %v", err)
	}
	proof, err := adminClient.Status(attackOwned.ID)
	if err != nil {
		t.Fatal(err)
	}
	if proof.State != ledger.StatePermanentlyRevoked {
		t.Errorf("state %v", proof.State)
	}
}

func TestLedgerOutageDefaultDeny(t *testing.T) {
	// Goal #3 posture under failure: if validation cannot complete, the
	// photo must not display. The ledger runs in one deployment; a
	// browser-side deployment reaches it as a remote ledger.
	ledgerSide, err := core.Build(core.Spec{Ledgers: []ledger.Config{{ID: 1}}, HTTP: true})
	if err != nil {
		t.Fatal(err)
	}
	viewer, err := core.Build(core.Spec{Remote: core.Endpoints{1: ledgerSide.URL(1)}})
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()
	cam, err := viewer.NewOwner(1)
	if err != nil {
		t.Fatal(err)
	}
	labeled, owned, err := cam.ClaimAndLabel(cam.Shoot(2, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	// No filter held → every validation needs the ledger. Kill it.
	if err := ledgerSide.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := viewer.Proxy().Validator().Validate(owned.ID); err == nil {
		t.Fatal("validation succeeded against a dead ledger")
	}
	// The browser-extension policy turns that error into deny.
	if dec := viewer.View(labeled); dec.Display || dec.ID != owned.ID {
		t.Errorf("photo of a dead ledger displayed: %+v", dec)
	}
}

func TestStaleFilterStillSafe(t *testing.T) {
	// A proxy holding yesterday's filter can answer "not revoked" for a
	// photo revoked since — bounded staleness is Nongoal #4. But it must
	// NEVER answer "not revoked" for a photo that was already revoked
	// when the filter was built.
	d := newDeployment(t, "")
	cam := d.camera(t, 1)

	labeledOld, ownedOld, err := cam.ClaimAndLabel(cam.Shoot(3, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	_ = labeledOld
	if err := cam.Revoke(ownedOld.ID); err != nil {
		t.Fatal(err)
	}
	d.refresh(t) // filter includes ownedOld

	// New photo claimed and revoked *after* the filter was built.
	_, ownedNew, err := cam.ClaimAndLabel(cam.Shoot(4, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := cam.Revoke(ownedNew.ID); err != nil {
		t.Fatal(err)
	}
	// No refresh: the proxy's filter is stale.

	val := d.sys.Proxy().Validator()
	resOld, err := val.Validate(ownedOld.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resOld.State != ledger.StateRevoked {
		t.Errorf("already-revoked photo passed: %v via %v", resOld.State, resOld.Source)
	}
	resNew, err := val.Validate(ownedNew.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The stale filter misses the new revocation (filter answers
	// active); that is the documented propagation window...
	if resNew.Source == proxy.SourceFilter && resNew.State == ledger.StateActive {
		// ...and it must close after the next refresh.
		d.refresh(t)
		resNew2, err := val.Validate(ownedNew.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resNew2.State != ledger.StateRevoked {
			t.Errorf("revocation did not propagate after refresh: %v", resNew2.State)
		}
	} else if resNew.State != ledger.StateRevoked {
		t.Errorf("unexpected stale answer: %v via %v", resNew.State, resNew.Source)
	}
}

func TestRelayAgainstLiveProxyStack(t *testing.T) {
	// Oblivious path wired to a real validator: client → ingress →
	// egress → proxy.Validator → ledger HTTP.
	d := newDeployment(t, "")
	cam := d.camera(t, 1)
	_, owned, err := cam.ClaimAndLabel(cam.Shoot(5, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := cam.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	d.refresh(t)

	eg, err := relay.NewEgress(d.sys.Proxy().Validator().Resolve)
	if err != nil {
		t.Fatal(err)
	}
	client, err := relay.NewClient(eg.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	q, pending, err := client.Seal(owned.ID)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := eg.Handle(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := pending.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if resp.State != ledger.StateRevoked {
		t.Errorf("relay answered %v", resp.State)
	}
	if len(resp.Proof) > 0 {
		p, err := ledger.UnmarshalProof(resp.Proof)
		if err != nil {
			t.Fatal(err)
		}
		if err := ledger.VerifyProof(d.ledger(t, 1).SigningKey(), p, *d.clock, time.Hour); err != nil {
			t.Errorf("relayed proof does not verify: %v", err)
		}
	}
}

func TestAggregatorFleetConvergence(t *testing.T) {
	// Three aggregators host the same labeled photo; one revocation +
	// one recheck cycle takes it down everywhere — Goal #1(ii): "without
	// individually tracking down and requesting the removal of every
	// copy".
	d := newDeployment(t, "")
	cam := d.camera(t, 1)
	labeled, owned, err := cam.ClaimAndLabel(cam.Shoot(7, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	var sites []*aggregator.Aggregator
	for i := 0; i < 3; i++ {
		agg, err := aggregator.New(aggregator.Config{Name: "site"}, d.sys.Directory())
		if err != nil {
			t.Fatal(err)
		}
		res, err := agg.Upload(labeled.Clone())
		if err != nil || !res.Accepted {
			t.Fatalf("site %d upload: %+v %v", i, res, err)
		}
		sites = append(sites, agg)
	}
	if err := cam.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	for i, agg := range sites {
		down, err := agg.RecheckAll()
		if err != nil {
			t.Fatal(err)
		}
		if down != 1 || agg.Hosts(owned.ID) {
			t.Errorf("site %d: takedown failed", i)
		}
	}
}

func TestPNMInteropWithRealListener(t *testing.T) {
	// Smoke the built proxy behind a listener of the caller's own, the
	// way a binary mounts it: raw net.Listen + http.Server.
	d := newDeployment(t, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: d.sys.Proxy()}
	go srv.Serve(ln)
	defer srv.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stats status %d", resp.StatusCode)
	}
}
