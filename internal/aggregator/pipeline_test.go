package aggregator

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"irs/internal/camera"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/netsim"
	"irs/internal/parallel"
	"irs/internal/phash"
	"irs/internal/photo"
	"irs/internal/watermark"
	"irs/internal/wire"
)

// mixedCorpus builds one upload sequence exercising every decision
// branch: accepts, every deny reason reachable without fault injection,
// an order-sensitive derivative pair, and a malformed raw container.
// The claims live on the rig's ledgers so the same items can be
// replayed against any number of fresh aggregators.
func mixedCorpus(t *testing.T, r *rig) []UploadItem {
	t.Helper()
	var items []UploadItem
	add := func(im *photo.Image) { items = append(items, UploadItem{Image: im}) }

	// Three clean labeled-active photos.
	for seed := int64(0); seed < 3; seed++ {
		labeled, _, err := r.cam.ClaimAndLabel(r.cam.Shoot(900+seed, 192, 128))
		if err != nil {
			t.Fatal(err)
		}
		add(labeled)
	}
	// Revoked claim.
	revoked, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(910, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.cam.Revoke(owned.ID); err != nil {
		t.Fatal(err)
	}
	add(revoked)
	// Fabricated label (consistent, but the claim does not exist).
	fake, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := camera.Label(photo.Synth(911, 192, 128), fake, "local://1", watermark.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	add(fab)
	// Label mismatch: metadata swapped for a different identifier.
	mism, _, err := r.cam.ClaimAndLabel(r.cam.Shoot(912, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	other, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	tampered := mism.Clone()
	tampered.Meta.Set(photo.KeyIRSID, other.String())
	add(tampered)
	// Partial label: metadata stripped, watermark intact.
	part, _, err := r.cam.ClaimAndLabel(r.cam.Shoot(913, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := photo.StripViaPNM(part)
	if err != nil {
		t.Fatal(err)
	}
	add(stripped)
	// Unlabeled.
	add(photo.Synth(914, 192, 128))
	// Order-sensitive derivative pair: the original must be hosted
	// before the relabeled copy arrives, or the derivative check flips.
	orig, _, err := r.cam.ClaimAndLabel(r.cam.Shoot(915, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	add(orig)
	erased, err := watermark.Erase(orig, watermark.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	attacker := camera.New(&wire.Loopback{L: r.ownerLedger}, "local://1", nil)
	relabeled, _, err := attacker.ClaimAndLabel(erased)
	if err != nil {
		t.Fatal(err)
	}
	add(relabeled)
	// A raw IRSP container, decoded inside the pipeline.
	rawSrc, _, err := r.cam.ClaimAndLabel(r.cam.Shoot(916, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := photo.EncodeIRSP(&buf, rawSrc); err != nil {
		t.Fatal(err)
	}
	items = append(items, UploadItem{Raw: buf.Bytes()})
	// A poisoned raw container: per-item error, stream keeps going.
	items = append(items, UploadItem{Raw: []byte("not an IRSP container")})
	return items
}

// freshAgg builds a new aggregator against the rig's existing
// directory, so replays see the same ledger state but empty local
// hosting and hash-DB state.
func freshAgg(t *testing.T, r *rig, policy UnlabeledPolicy) *Aggregator {
	t.Helper()
	agg, err := New(Config{
		Name:               "replay",
		Unlabeled:          policy,
		CustodialLedger:    &wire.Loopback{L: r.custLedger},
		CustodialLedgerURL: "local://2",
		RecheckInterval:    time.Hour,
	}, r.dir)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// decision is the comparable core of an upload outcome. Custodial
// accept IDs are freshly issued per run, so they are compared only by
// the Custodial flag, not by value.
type decision struct {
	accepted  bool
	custodial bool
	reason    DenyReason
	id        ids.PhotoID
	failed    bool
}

func toDecision(res UploadResult, err error) decision {
	d := decision{
		accepted:  res.Accepted,
		custodial: res.Custodial,
		reason:    res.Reason,
		failed:    err != nil,
	}
	if res.Accepted && !res.Custodial {
		d.id = res.ID
	}
	return d
}

// TestPipelineDecisionsMatchSerial replays one mixed corpus through the
// serial Upload path and through UploadAll at several worker counts;
// every run must reach the identical decision sequence, including the
// order-sensitive derivative deny and the per-item decode error.
func TestPipelineDecisionsMatchSerial(t *testing.T) {
	for _, policy := range []UnlabeledPolicy{RejectUnlabeled, CustodialClaim} {
		r := newRig(t, policy, nil)
		items := mixedCorpus(t, r)

		serial := make([]decision, len(items))
		for i, it := range items {
			im := it.Image
			if im == nil {
				dec, err := photo.DecodeIRSP(bytes.NewReader(it.Raw))
				if err != nil {
					serial[i] = decision{failed: true}
					continue
				}
				im = dec
			}
			res, err := r.agg.Upload(im)
			serial[i] = toDecision(res, err)
		}
		if !serial[len(items)-1].failed {
			t.Fatal("corpus poison item did not fail serially")
		}

		for _, workers := range []int{1, 2, 4, 8} {
			agg := freshAgg(t, r, policy)
			results := uploadAllAt(agg, workers, items)
			if len(results) != len(items) {
				t.Fatalf("policy %v workers %d: %d results for %d items",
					policy, workers, len(results), len(items))
			}
			for i, res := range results {
				if res.Index != i {
					t.Fatalf("workers %d: result %d carries index %d", workers, i, res.Index)
				}
				if got := toDecision(res.Result, res.Err); got != serial[i] {
					t.Errorf("policy %v workers %d item %d: pipeline %+v, serial %+v",
						policy, workers, i, got, serial[i])
				}
			}
			// The serial path and the pipeline must agree on hosted state
			// for the non-custodial accepts.
			for i, d := range serial {
				if d.accepted && !d.custodial && !agg.Hosts(d.id) {
					t.Errorf("workers %d: accepted item %d not hosted", workers, i)
				}
			}
		}
	}
}

// uploadAllAt runs UploadAll with the parallel pool pinned to workers.
func uploadAllAt(agg *Aggregator, workers int, items []UploadItem) []StreamResult {
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	return agg.UploadAll(context.Background(), items)
}

// TestUploadAllCancellation: a context cancelled before the call
// touches neither the ledgers nor the aggregator, and every item
// carries the context's error; a context cancelled while the album's
// status batch is on the wire changes nothing, since every item has
// been prepared by then and is decided as serial Upload decides it.
func TestUploadAllCancellation(t *testing.T) {
	r := newRig(t, CustodialClaim, nil)
	spy1, spy2 := spyOn(t, r, 1), spyOn(t, r, 2)
	agg, err := New(Config{
		Name:               "cancel",
		Unlabeled:          CustodialClaim,
		CustodialLedger:    spy2,
		CustodialLedgerURL: "local://2",
	}, r.dir)
	if err != nil {
		t.Fatal(err)
	}
	var items []UploadItem
	for i := int64(0); i < 6; i++ {
		im := photo.Synth(1500+i, 192, 128) // unlabeled: custodial
		if i%2 == 0 {
			if im, _, err = r.cam.ClaimAndLabel(r.cam.Shoot(1500+i, 192, 128)); err != nil {
				t.Fatal(err)
			}
		}
		items = append(items, UploadItem{Image: im})
	}
	calls := func() int64 {
		var n int64
		for _, s := range []*spyService{spy1, spy2} {
			n += s.statuses.Load() + s.batches.Load() + s.claims.Load()
		}
		return n
	}

	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	uploads := agg.MetricsSnapshot().Uploads
	for _, workers := range []int{1, 4} {
		prev := parallel.SetWorkers(workers)
		results := agg.UploadAll(dead, items)
		parallel.SetWorkers(prev)
		for i, res := range results {
			if res.Index != i || !errors.Is(res.Err, context.Canceled) {
				t.Errorf("workers %d item %d under a cancelled context: %+v", workers, i, res)
			}
		}
	}
	if n := calls(); n != 0 {
		t.Errorf("a cancelled album made %d ledger calls", n)
	}
	if got := agg.MetricsSnapshot().Uploads; got != uploads {
		t.Errorf("a cancelled album counted %d uploads", got-uploads)
	}

	serialAgg := freshAgg(t, r, CustodialClaim)
	serial := make([]decision, len(items))
	for i, it := range items {
		serial[i] = toDecision(serialAgg.Upload(it.Image))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spy1.statusBatch = func(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
		cancel()
		return spy1.Service.StatusBatch(batch)
	}
	prev := parallel.SetWorkers(4)
	results := agg.UploadAll(ctx, items)
	parallel.SetWorkers(prev)
	if ctx.Err() == nil {
		t.Fatal("the album sent no status batch")
	}
	for i, res := range results {
		if got := toDecision(res.Result, res.Err); got != serial[i] {
			t.Errorf("item %d after a cancel mid-status: %+v (err %v), serial %+v", i, got, res.Err, serial[i])
		}
	}
}

// TestPipelinePoisonedItem checks a malformed container yields a
// per-item error while neighbours on both sides are processed.
func TestPipelinePoisonedItem(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	labeled, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(960, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := photo.EncodeIRSP(&buf, labeled); err != nil {
		t.Fatal(err)
	}
	items := []UploadItem{
		{Raw: buf.Bytes()},
		{Raw: []byte{0xde, 0xad}},
		{Raw: buf.Bytes()},
	}
	results := uploadAllAt(r.agg, 3, items)
	if results[0].Err != nil || !results[0].Result.Accepted || results[0].Result.ID != owned.ID {
		t.Errorf("item 0: %+v err=%v", results[0].Result, results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("poisoned item 1 produced no error")
	}
	if results[2].Err != nil || !results[2].Result.Accepted {
		t.Errorf("item 2: %+v err=%v", results[2].Result, results[2].Err)
	}
}

// TestVideoUploadWorkerInvariance pins the batch-hashed video ingest:
// the hosted signature set, and therefore every derivative lookup, is
// identical whether SignatureAll ran on one worker or eight.
func TestVideoUploadWorkerInvariance(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	v, err := r.cam.Record(970, 192, 128, 6, 24)
	if err != nil {
		t.Fatal(err)
	}
	labeled, owned, err := r.cam.ClaimAndLabelVideo(v)
	if err != nil {
		t.Fatal(err)
	}
	serialSigs := make([]phash.Signature, len(labeled.Frames))
	for i, f := range labeled.Frames {
		serialSigs[i] = phash.NewSignature(f)
	}
	for _, workers := range []int{1, 8} {
		prev := parallel.SetWorkers(workers)
		agg := freshAgg(t, r, RejectUnlabeled)
		res, err := agg.UploadVideo(labeled)
		parallel.SetWorkers(prev)
		if err != nil || !res.Accepted || res.ID != owned.ID {
			t.Fatalf("workers %d: %+v %v", workers, res, err)
		}
		// Every frame — not just the poster — must resolve through the
		// hash index, with signatures matching the serial computation.
		for i := range labeled.Frames {
			id, found := agg.lookupHash(serialSigs[i])
			if !found || id != owned.ID {
				t.Errorf("workers %d: frame %d signature not indexed (found=%v id=%v)",
					workers, i, found, id)
			}
		}
	}
}

// spyService counts the ledger calls of an underlying Service and lets
// a test replace the status ones — the seam the status-stage tests use
// to inject latency and faults.
type spyService struct {
	wire.Service
	statuses, batches, claims atomic.Int64

	status      func(ids.PhotoID) (*ledger.StatusProof, error)
	statusBatch func([]ids.PhotoID) ([]*ledger.StatusProof, error)
}

func (s *spyService) Status(id ids.PhotoID) (*ledger.StatusProof, error) {
	s.statuses.Add(1)
	if s.status != nil {
		return s.status(id)
	}
	return s.Service.Status(id)
}

func (s *spyService) StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	s.batches.Add(1)
	if s.statusBatch != nil {
		return s.statusBatch(batch)
	}
	return s.Service.StatusBatch(batch)
}

func (s *spyService) Claim(req *wire.ClaimRequest) (ledger.Receipt, error) {
	s.claims.Add(1)
	return s.Service.Claim(req)
}

func (s *spyService) reset() {
	s.statuses.Store(0)
	s.batches.Store(0)
	s.claims.Store(0)
}

// spyOn puts a spy in front of ledger lid in the rig's directory.
func spyOn(t *testing.T, r *rig, lid ids.LedgerID) *spyService {
	t.Helper()
	real, err := r.dir.ForLedger(lid)
	if err != nil {
		t.Fatal(err)
	}
	spy := &spyService{Service: real}
	r.dir.Register(lid, spy)
	return spy
}

// TestPipelineStatusRequestCount pins what the batched status step is
// for: the ledger requests of an album are a function of its content
// alone. An album with labeled items on two ledgers plus unlabeled,
// mismatched and malformed ones costs UploadAll exactly two StatusBatch
// requests, no Status, and one Claim per custodial item, at any worker
// count. Decisions equal serial Upload item by item.
func TestPipelineStatusRequestCount(t *testing.T) {
	r := newRig(t, CustodialClaim, nil)
	spy1, spy2 := spyOn(t, r, 1), spyOn(t, r, 2)
	spies := []*spyService{spy1, spy2}
	newAgg := func() *Aggregator {
		// spy2 is the custodial ledger too, so its claims are counted.
		agg, err := New(Config{
			Name:               "count",
			Unlabeled:          CustodialClaim,
			CustodialLedger:    spy2,
			CustodialLedgerURL: "local://2",
		}, r.dir)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}

	// The album, with the ledger each item's status must come from (0:
	// the item needs none).
	cam2 := camera.New(&wire.Loopback{L: r.custLedger}, "local://2", nil)
	var items []UploadItem
	var ledgerOf []ids.LedgerID
	add := func(im *photo.Image, lid ids.LedgerID) {
		items = append(items, UploadItem{Image: im})
		ledgerOf = append(ledgerOf, lid)
	}
	for i := int64(0); i < 9; i++ {
		cam, lid := r.cam, ids.LedgerID(1)
		if i%3 == 2 {
			cam, lid = cam2, 2
		}
		labeled, owned, err := cam.ClaimAndLabel(cam.Shoot(1300+i, 192, 128))
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 3: // revoked: still a status read
			if err := cam.Revoke(owned.ID); err != nil {
				t.Fatal(err)
			}
		case 4: // mismatched: denied before any status
			other, err := ids.New(1)
			if err != nil {
				t.Fatal(err)
			}
			labeled.Meta.Set(photo.KeyIRSID, other.String())
			lid = 0
		}
		add(labeled, lid)
		if i%4 == 1 {
			add(photo.Synth(1350+i, 192, 128), 0) // unlabeled → custodial
		}
	}
	items = append(items, UploadItem{Raw: []byte("not an IRSP container")})
	ledgerOf = append(ledgerOf, 0)

	serialAgg := newAgg()
	serial := make([]decision, len(items))
	custodial := 0
	for i, it := range items {
		if it.Image == nil {
			serial[i] = decision{failed: true}
			continue
		}
		res, err := serialAgg.Upload(it.Image)
		serial[i] = toDecision(res, err)
		if res.Custodial {
			custodial++
		}
	}
	if custodial == 0 {
		t.Fatal("corpus has no custodial item")
	}
	if got := spy2.claims.Load(); got != int64(custodial) {
		t.Fatalf("serial: %d claims for %d custodial items", got, custodial)
	}
	// A custodial claim's proof rides its receipt: the only Status calls
	// of the serial path are the labeled items' own.
	wantSerial := 0
	for _, lid := range ledgerOf {
		if lid != 0 {
			wantSerial++
		}
	}
	if got := spy1.statuses.Load() + spy2.statuses.Load(); got != int64(wantSerial) {
		t.Fatalf("serial: %d Status calls, want %d", got, wantSerial)
	}

	check := func(name string, results []StreamResult) {
		t.Helper()
		if len(results) != len(items) {
			t.Fatalf("%s: %d results for %d items", name, len(results), len(items))
		}
		for i, res := range results {
			if res.Index != i {
				t.Fatalf("%s: result %d carries index %d", name, i, res.Index)
			}
			if got := toDecision(res.Result, res.Err); got != serial[i] {
				t.Errorf("%s item %d: pipeline %+v, serial %+v", name, i, got, serial[i])
			}
		}
		var statuses, batches, claims int64
		for _, s := range spies {
			statuses += s.statuses.Load()
			batches += s.batches.Load()
			claims += s.claims.Load()
		}
		if statuses != 0 || batches != 2 || claims != int64(custodial) {
			t.Errorf("%s: %d Status, %d StatusBatch, %d Claim; want 0, 2, %d",
				name, statuses, batches, claims, custodial)
		}
	}
	for _, workers := range []int{1, 4, 8} {
		for _, s := range spies {
			s.reset()
		}
		check(fmt.Sprintf("UploadAll workers=%d", workers), uploadAllAt(newAgg(), workers, items))
	}
}

// TestPipelineStatusFaultParity replays one corpus, labeled on two
// ledgers and uploaded as 4-item albums, against status endpoints that
// fail per netsim.Faulty fate draws — one fate per status batch, that
// is per (album, ledger). Fates are pre-drawn in issue order and looked
// up by the identifiers a request carries, so the serial path (one
// Status per item, given its batch's fate) and UploadAll at any worker
// count observe the same fault for the same item: every item of a lost
// batch is DenyLedgerUnreachable, and every item of any other batch —
// the same album's batch to the other ledger included — decides as
// serial.
func TestPipelineStatusFaultParity(t *testing.T) {
	r := newRig(t, RejectUnlabeled, nil)
	cam2 := camera.New(&wire.Loopback{L: r.custLedger}, "local://2", nil)

	const n, album = 12, 4
	type batchKey struct {
		album int
		lid   ids.LedgerID
	}
	items := make([]UploadItem, 0, n)
	keyOf := make(map[ids.PhotoID]batchKey, n)
	itemKey := make([]batchKey, 0, n)
	for i := 0; i < n; i++ {
		cam := r.cam
		if i%2 == 1 {
			cam = cam2
		}
		labeled, owned, err := cam.ClaimAndLabel(cam.Shoot(1000+int64(i), 192, 128))
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := cam.Revoke(owned.ID); err != nil {
				t.Fatal(err)
			}
		}
		items = append(items, UploadItem{Image: labeled})
		k := batchKey{i / album, owned.ID.Ledger}
		keyOf[owned.ID] = k
		itemKey = append(itemKey, k)
	}

	// Pre-draw one fate per batch on a simulated faulty link. The draws
	// happen in issue order on the sim — deterministic for a seed — and
	// are then looked up by content, so real-time call order cannot
	// reshuffle which batch they land on.
	var keys []batchKey
	for a := 0; a < n/album; a++ {
		keys = append(keys, batchKey{a, 1}, batchKey{a, 2})
	}
	sched := netsim.NewScheduler(1)
	faulty, err := netsim.NewFaulty(netsim.NewLink(sched, netsim.Fixed(time.Millisecond), 0),
		netsim.FaultConfig{Seed: 17, LossProb: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	fates := make([]error, len(keys))
	for i := range keys {
		faulty.Request(func(err error) { fates[i] = err })
	}
	sched.Run()
	fateFor := make(map[batchKey]error, len(keys))
	lost := 0
	for i, k := range keys {
		fateFor[k] = fates[i]
		if fates[i] != nil {
			lost++
		}
	}
	if lost == 0 || lost == len(keys) {
		t.Fatalf("fate draw degenerate: %d/%d lost; pick a new seed", lost, len(keys))
	}

	for _, lid := range []ids.LedgerID{1, 2} {
		spy := spyOn(t, r, lid)
		real := spy.Service
		spy.status = func(id ids.PhotoID) (*ledger.StatusProof, error) {
			if ferr := fateFor[keyOf[id]]; ferr != nil {
				return nil, ferr
			}
			return real.Status(id)
		}
		spy.statusBatch = func(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
			k := keyOf[batch[0]]
			for _, id := range batch {
				if keyOf[id] != k {
					return nil, fmt.Errorf("batch mixes %+v and %+v", k, keyOf[id])
				}
			}
			if ferr := fateFor[k]; ferr != nil {
				return nil, ferr
			}
			return real.StatusBatch(batch)
		}
	}

	serial := make([]decision, n)
	for i, it := range items {
		res, err := r.agg.Upload(it.Image)
		serial[i] = toDecision(res, err)
		switch {
		case fateFor[itemKey[i]] != nil:
			if serial[i].reason != DenyLedgerUnreachable {
				t.Fatalf("serial item %d: %+v, want DenyLedgerUnreachable", i, serial[i])
			}
		case i%5 == 4:
			if serial[i].reason != DenyRevoked {
				t.Fatalf("serial item %d: %+v, want DenyRevoked", i, serial[i])
			}
		default:
			if !serial[i].accepted {
				t.Fatalf("serial item %d: not accepted: %+v", i, serial[i])
			}
		}
	}

	for _, workers := range []int{1, 4, 8} {
		agg := freshAgg(t, r, RejectUnlabeled)
		var results []StreamResult
		for lo := 0; lo < n; lo += album {
			results = append(results, uploadAllAt(agg, workers, items[lo:lo+album])...)
		}
		for i, res := range results {
			if got := toDecision(res.Result, res.Err); got != serial[i] {
				t.Errorf("workers %d item %d (batch %+v): pipeline %+v, serial %+v",
					workers, i, itemKey[i], got, serial[i])
			}
		}
	}
}

// proofless answers claims the way a ledger that predates the proof
// field does.
type proofless struct{ *spyService }

func (p proofless) Claim(req *wire.ClaimRequest) (ledger.Receipt, error) {
	r, err := p.spyService.Claim(req)
	r.Proof = nil
	return r, err
}

// TestCustodialClaimUsesReceiptProof: hosting a custodial claim costs
// the claim and nothing more when the receipt carries the first proof,
// and exactly one Status when it comes from an older ledger — the one
// documented second path. Either way the photo is served with a proof
// of its own identifier.
func TestCustodialClaimUsesReceiptProof(t *testing.T) {
	r := newRig(t, CustodialClaim, nil)
	spy := &spyService{Service: &wire.Loopback{L: r.custLedger}}
	for _, tc := range []struct {
		name         string
		custodial    wire.Service
		wantStatuses int64
	}{
		{"proof in receipt", spy, 0},
		{"older ledger", proofless{spy}, 1},
	} {
		agg, err := New(Config{
			Unlabeled:          CustodialClaim,
			CustodialLedger:    tc.custodial,
			CustodialLedgerURL: "local://2",
		}, r.dir)
		if err != nil {
			t.Fatal(err)
		}
		upload := map[string]func(*photo.Image) (UploadResult, error){
			"Upload": agg.Upload,
			"UploadAll": func(im *photo.Image) (UploadResult, error) {
				res := agg.UploadAll(context.Background(), []UploadItem{{Image: im}})[0]
				return res.Result, res.Err
			},
		}
		seed := int64(1400)
		for path, up := range upload {
			spy.reset()
			seed++
			res, err := up(photo.Synth(seed, 192, 128))
			if err != nil || !res.Accepted || !res.Custodial {
				t.Fatalf("%s via %s: %+v %v", tc.name, path, res, err)
			}
			if c, s := spy.claims.Load(), spy.statuses.Load(); c != 1 || s != tc.wantStatuses {
				t.Errorf("%s via %s: %d Claim, %d Status; want 1, %d", tc.name, path, c, s, tc.wantStatuses)
			}
			served, err := agg.Serve(res.ID)
			if err != nil {
				t.Fatal(err)
			}
			proof, err := ledger.UnmarshalProof([]byte(served.Meta.Get(photo.KeyIRSProof)))
			if err != nil || proof.ID != res.ID || proof.State != ledger.StateActive {
				t.Errorf("%s via %s: served proof %+v (%v)", tc.name, path, proof, err)
			}
			if err := ledger.VerifyProof(r.custLedger.SigningKey(), proof, time.Now(), time.Minute); err != nil {
				t.Errorf("%s via %s: %v", tc.name, path, err)
			}
		}
	}
}

// TestHostOwnership: hosting copies an image whenever somebody else can
// still write to it. A caller-supplied image (Upload, UploadItem.Image)
// and the bytes an image was parsed from in place (UploadItem.Raw) may
// be scribbled over afterwards without the hosted photo changing; the
// relabeled copy a custodial claim makes is hosted as it is.
func TestHostOwnership(t *testing.T) {
	r := newRig(t, CustodialClaim, nil)
	scribble := func(im *photo.Image) {
		for i := range im.Pix {
			im.Pix[i] ^= 0xff
		}
		im.Meta.Set(photo.KeyIRSID, "scribbled")
	}
	viaUpload, ownedA, err := r.cam.ClaimAndLabel(r.cam.Shoot(1201, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	viaItem, ownedB, err := r.cam.ClaimAndLabel(r.cam.Shoot(1202, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantB := viaUpload.Clone(), viaItem.Clone()
	if res, err := r.agg.Upload(viaUpload); err != nil || !res.Accepted {
		t.Fatalf("Upload: %+v, %v", res, err)
	}
	if res := r.agg.UploadAll(context.Background(), []UploadItem{{Image: viaItem}})[0]; res.Err != nil || !res.Result.Accepted {
		t.Fatalf("UploadAll with Image set: %+v", res)
	}
	scribble(viaUpload)
	scribble(viaItem)
	for _, c := range []struct {
		name string
		id   ids.PhotoID
		want *photo.Image
	}{{"Upload", ownedA.ID, wantA}, {"UploadAll Image", ownedB.ID, wantB}} {
		got, err := r.agg.Serve(c.id)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(c.want) || got.Meta.Get(photo.KeyIRSID) != c.want.Meta.Get(photo.KeyIRSID) {
			t.Errorf("%s: the hosted photo changed when the caller wrote to the image it had uploaded", c.name)
		}
	}

	// The two halves of the pipeline by hand, so the image prepare
	// decoded can be told from the one commit hosted.
	encode := func(im *photo.Image) []byte {
		var buf bytes.Buffer
		if err := photo.EncodeIRSP(&buf, im); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	commitRaw := func(raw []byte) (*prep, UploadResult) {
		t.Helper()
		p := &prep{raw: raw}
		r.agg.prepare(p)
		if p.err != nil {
			t.Fatal(p.err)
		}
		if p.wantStatus {
			p.proof, p.statusErr = r.ownerLedger.Status(p.metaID)
		}
		res, err := r.agg.commit(p)
		if err != nil || !res.Accepted {
			t.Fatalf("commit: %+v, %v", res, err)
		}
		return p, res
	}
	labeled, _, err := r.cam.ClaimAndLabel(r.cam.Shoot(1203, 192, 128))
	if err != nil {
		t.Fatal(err)
	}
	raw := encode(labeled)
	p, res := commitRaw(raw)
	if r.agg.photos[res.ID].img == p.im {
		t.Error("an image parsed in place from Raw was hosted without a copy")
	}
	for i := range raw {
		raw[i] ^= 0xff
	}
	if got, err := r.agg.Serve(res.ID); err != nil || !got.Equal(labeled) || got.Meta.Get(photo.KeyIRSID) != labeled.Meta.Get(photo.KeyIRSID) {
		t.Errorf("the hosted photo changed when the bytes it was parsed from were written (%v)", err)
	}

	// Custodial: the hosted image is the copy camera.Label made, so the
	// commit allocates that copy and no second one. Serial, GC off and
	// pools warm, so the ceiling sees the commit's own allocations only.
	if raceEnabled {
		return
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	commitRaw(encode(photo.Synth(1204, 192, 128)))
	custodial := &prep{raw: encode(photo.Synth(1205, 192, 128))}
	r.agg.prepare(custodial)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err = r.agg.commit(custodial)
	runtime.ReadMemStats(&after)
	if err != nil || !res.Custodial {
		t.Fatalf("custodial commit: %+v, %v", res, err)
	}
	pixels := uint64(len(custodial.im.Pix))
	if got, ceiling := after.TotalAlloc-before.TotalAlloc, pixels+pixels/2; got > ceiling {
		t.Errorf("a custodial commit of %d pixel bytes allocated %d, ceiling %d: the relabeled copy is copied again to be hosted", pixels, got, ceiling)
	}
}
