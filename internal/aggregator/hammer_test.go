package aggregator

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irs/internal/camera"
	"irs/internal/photo"
	"irs/internal/watermark"
	"irs/internal/wire"
)

// TestTakedownRevalidateUploadHammer is the torn-state race of an
// appeal storm, run under -race: appeal-driven
// TakeDown, Serve-driven revalidation (including revoked claims), full
// RecheckAll passes, and a stream of fresh uploads all hit the same
// photo population concurrently. Two invariants must hold at
// quiescence, no matter how the deletions interleave:
//
//  1. Metric conservation — Uploads == Accepted + ΣDenied. A torn
//     upload that is counted but neither accepted nor denied (or
//     double-counted on a retry path) breaks the books.
//  2. No dead-ID derivative denial survives — every taken-down photo's
//     hash-DB entries are gone, so a legitimately re-claimed derivative
//     of its content uploads cleanly. A TakeDown racing applyRecheck
//     must not leave a half-removed photo whose dead identifier keeps
//     denying derivatives forever.
func TestTakedownRevalidateUploadHammer(t *testing.T) {
	base := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	var offNs atomic.Int64
	clock := func() time.Time { return base.Add(time.Duration(offNs.Load())) }
	r := newRig(t, RejectUnlabeled, clock)

	// Victim population, plus a pre-claimed derivative of each victim's
	// content (watermark erased, re-claimed under a fresh key) prepared
	// serially so the race phase does no expensive label work.
	const victims = 12
	victimIDs := make([]struct {
		owned      *camera.Owned
		derivative *photo.Image
	}, victims)
	wmCfg := watermark.DefaultConfig()
	for i := range victimIDs {
		labeled, owned, err := r.cam.ClaimAndLabel(r.cam.Shoot(int64(100+i), 192, 128))
		if err != nil {
			t.Fatal(err)
		}
		if res, err := r.agg.Upload(labeled); err != nil || !res.Accepted {
			t.Fatalf("victim %d upload: %+v %v", i, res, err)
		}
		erased, err := watermark.Erase(labeled, wmCfg, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		otherCam := camera.New(&wire.Loopback{L: r.ownerLedger}, "local://1", nil)
		relabeled, _, err := otherCam.ClaimAndLabel(erased)
		if err != nil {
			t.Fatal(err)
		}
		victimIDs[i].owned = owned
		victimIDs[i].derivative = relabeled
		// Revoke half the victims at the ledger so the revalidation and
		// recheck paths perform takedowns too, racing the appeal path.
		if i%2 == 0 {
			if err := r.cam.Revoke(owned.ID); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Fresh-upload traffic is prepared serially as well.
	const freshUploads = 24
	fresh := make([]*photo.Image, freshUploads)
	for i := range fresh {
		labeled, _, err := r.cam.ClaimAndLabel(r.cam.Shoot(int64(500+i), 192, 128))
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = labeled
	}

	var wg sync.WaitGroup
	// Appeal workers: each victim is taken down exactly once by exactly
	// one worker; TakeDown returning false (already gone via recheck) is
	// a legal interleaving.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < victims; i += 3 {
				r.agg.TakeDown(victimIDs[i].owned.ID)
			}
		}(w)
	}
	// Serve workers: advance the clock past RecheckInterval each lap so
	// every Serve forces a revalidation racing the takedowns.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lap := 0; lap < 8; lap++ {
				offNs.Add(int64(2 * time.Hour))
				for i := range victimIDs {
					// ErrTakenDown / not-hosted are expected outcomes here.
					_, _ = r.agg.Serve(victimIDs[i].owned.ID)
				}
			}
		}()
	}
	// Recheck worker: full passes over whatever is hosted.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lap := 0; lap < 6; lap++ {
			if _, err := r.agg.RecheckAll(); err != nil {
				t.Errorf("RecheckAll: %v", err)
			}
		}
	}()
	// Upload workers: fresh traffic streams throughout.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < freshUploads; i += 2 {
				if res, err := r.agg.Upload(fresh[i]); err != nil || !res.Accepted {
					t.Errorf("fresh upload %d: %+v %v", i, res, err)
				}
			}
		}(w)
	}
	wg.Wait()

	// Invariant 1: conservation. Every upload is accepted or denied,
	// exactly once.
	m := r.agg.MetricsSnapshot()
	var denied uint64
	for _, n := range m.Denied {
		denied += n
	}
	if m.Uploads != m.Accepted+denied {
		t.Fatalf("conservation broken: Uploads=%d Accepted=%d ΣDenied=%d (Denied=%v)",
			m.Uploads, m.Accepted, denied, m.Denied)
	}

	// Every victim is gone, whichever deletion path won.
	for i := range victimIDs {
		if r.agg.Hosts(victimIDs[i].owned.ID) {
			t.Fatalf("victim %d still hosted after takedown storm", i)
		}
	}

	// Invariant 2: no dead-ID derivative denials. The derivatives hold
	// the only live claims on their content now; a denial here means a
	// taken-down photo left hash-DB entries behind.
	for i := range victimIDs {
		res, err := r.agg.Upload(victimIDs[i].derivative)
		if err != nil {
			t.Fatalf("derivative %d upload: %v", i, err)
		}
		if !res.Accepted {
			t.Fatalf("derivative %d denied (%v) after its original was taken down — dead-ID hash entry survived the race", i, res.Reason)
		}
	}
	if got, want := r.agg.HostedCount(), freshUploads+victims; got != want {
		t.Fatalf("hosted count %d, want %d (fresh + derivatives)", got, want)
	}
}
