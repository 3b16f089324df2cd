package integration

import (
	"crypto/ed25519"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/proxy"
	"irs/internal/wire"
)

// The conservation suite drives a browser-shaped workload through the
// full validation stack — proxy Validator, loopback HTTP wire, ledger —
// and checks the obs layer's core accounting invariant after every
// batch: each validation occurrence lands in exactly one of the six
// outcome counters, so
//
//	Total == FilterMisses + CacheHits + LedgerQueries +
//	         StaleServed + Unavailable + BreakerFastFails
//
// at every quiescent point, across ledger shard counts and client
// concurrency. The phases manufacture every outcome class: fresh
// queries, cache hits, filter fast-paths, stale serving inside an
// outage window, and hard failures around the breaker trip point.

// outageService injects a ledger outage in front of a wire client:
// while down, every call fails with the pre-send transport error class
// a dead ledger produces.
type outageService struct {
	wire.Service
	down atomic.Bool
}

func (s *outageService) StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	if s.down.Load() {
		return nil, &wire.TransportError{PreSend: true, Err: fmt.Errorf("outage")}
	}
	return s.Service.StatusBatch(batch)
}

// claimPopulation claims n photos on l; ids at odd indexes are revoked
// at birth (so they are in the revocation filter).
func claimPopulation(t *testing.T, l *ledger.Ledger, n int) (revoked, clean []ids.PhotoID) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(i))
		h := sha256.Sum256(buf[:])
		rec, err := l.Claim(h, pub, ed25519.Sign(priv, ledger.ClaimMsg(h)), i%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			revoked = append(revoked, rec.ID)
		} else {
			clean = append(clean, rec.ID)
		}
	}
	return revoked, clean
}

// runParallel partitions reqs across nworkers goroutines and applies fn
// to each id; the return is a full barrier, so counter reads after it
// are quiescent.
func runParallel(t *testing.T, nworkers int, reqs []ids.PhotoID, fn func(ids.PhotoID)) {
	t.Helper()
	var wg sync.WaitGroup
	chunk := (len(reqs) + nworkers - 1) / nworkers
	for w := 0; w < nworkers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(reqs) {
			hi = len(reqs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(part []ids.PhotoID) {
			defer wg.Done()
			for _, id := range part {
				fn(id)
			}
		}(reqs[lo:hi])
	}
	wg.Wait()
}

// checkConservation asserts the outcome partition sums to the total,
// and that the obs registry view agrees with the StatsSnapshot view.
func checkConservation(t *testing.T, phase string, v *proxy.Validator) proxy.StatsSnapshot {
	t.Helper()
	st := v.Stats()
	sum := st.FilterMisses + st.CacheHits + st.LedgerQueries +
		st.StaleServed + st.Unavailable + st.BreakerFastFails
	if st.Total != sum {
		t.Fatalf("%s: conservation violated: total %d != outcome sum %d (%+v)", phase, st.Total, sum, st)
	}
	snap := v.Registry().Snapshot()
	if got, ok := obs.Value(snap, "irs_proxy_validations_total"); !ok || uint64(got) != st.Total {
		t.Fatalf("%s: registry total %v (ok=%v) disagrees with snapshot %d", phase, got, ok, st.Total)
	}
	return st
}

func TestMetricsConservation(t *testing.T) {
	for _, shards := range []int{1, 8} {
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("shards=%d_workers=%d", shards, workers), func(t *testing.T) {
				testConservation(t, shards, workers)
			})
		}
	}
}

func testConservation(t *testing.T, shards, workers int) {
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	l, err := ledger.New(ledger.Config{ID: 1, Shards: shards, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// 96 claims: 48 revoked at birth (filter members), 48 clean. The
	// first 32 revoked ids feed the cached/stale phases; the last 16
	// stay cold so the outage phase has nothing stale to fall back on.
	revoked, clean := claimPopulation(t, l, 96)
	warm, cold := revoked[:32], revoked[32:]
	if _, err := l.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	seq, filter, err := l.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(wire.NewServer(l, ""))
	defer srv.Close()
	svc := &outageService{Service: wire.NewClient(srv.URL, "")}

	cacheTTL := time.Minute
	v := proxy.NewValidator(proxy.Config{
		CacheCapacity: 1024,
		CacheTTL:      cacheTTL,
		UseFilter:     true,
		Stripes:       4,
		Degrade:       proxy.DegradePolicy{Mode: proxy.DegradeFailOpenFresh},
		Breaker:       proxy.BreakerConfig{Enabled: true},
		Clock:         clock,
		Obs:           obs.NewRegistry(),
	}, func(_ ids.LedgerID, page []ids.PhotoID) ([]*ledger.StatusProof, error) {
		return svc.StatusBatch(page)
	})
	v.SetFilter(1, seq, filter)

	validate := func(id ids.PhotoID) {
		_, _ = v.Validate(id) // outage-phase errors are the point
	}

	// Phase 1 — fresh: revoked ids are filter members, so each of the 32
	// first-time validations queries the ledger.
	runParallel(t, workers, warm, validate)
	st := checkConservation(t, "fresh", v)
	if st.LedgerQueries != uint64(len(warm)) {
		t.Fatalf("fresh: ledger queries %d, want %d", st.LedgerQueries, len(warm))
	}

	// Phase 2 — cached: the same ids again, inside the TTL.
	runParallel(t, workers, warm, validate)
	st = checkConservation(t, "cached", v)
	if st.CacheHits != uint64(len(warm)) {
		t.Fatalf("cached: cache hits %d, want %d", st.CacheHits, len(warm))
	}

	// Phase 3 — filtered: clean ids short-circuit at the revocation
	// filter (barring false positives, which land in the query/cache
	// columns and still conserve).
	runParallel(t, workers, clean, validate)
	st = checkConservation(t, "filtered", v)
	if st.FilterMisses == 0 {
		t.Fatal("filtered: expected at least one filter fast-path")
	}

	// Phase 4 — batch path: pages mixing cached and clean ids.
	page := append(append([]ids.PhotoID(nil), warm[:8]...), clean[:8]...)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := v.ValidateBatch(page); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	checkConservation(t, "batch", v)

	// Phase 5 — outage window, stale serving: every cached proof is past
	// its TTL but within the stale window, and the ledger is down.
	now = now.Add(cacheTTL + time.Minute)
	svc.down.Store(true)
	runParallel(t, workers, warm, validate)
	st = checkConservation(t, "stale", v)
	if st.StaleServed != uint64(len(warm)) {
		t.Fatalf("stale: stale served %d, want %d", st.StaleServed, len(warm))
	}

	// Phase 6 — outage, nothing cached: cold revoked ids fail upstream
	// until the breaker trips, then fast-fail. The split between the two
	// columns depends on interleaving; the sum and the trip do not.
	before := st
	for round := 0; round < 3; round++ {
		runParallel(t, workers, cold, validate)
		st = checkConservation(t, fmt.Sprintf("outage round %d", round), v)
	}
	failed := (st.Unavailable + st.BreakerFastFails) - (before.Unavailable + before.BreakerFastFails)
	if want := uint64(3 * len(cold)); failed != want {
		t.Fatalf("outage: unavailable+fastfail delta %d, want %d", failed, want)
	}
	if st.BreakerFastFails == 0 {
		t.Fatal("outage: breaker never fast-failed")
	}

	// Phase 7 — recovery: ledger back, breaker cooldown lapsed; cold ids
	// resolve as fresh queries again.
	svc.down.Store(false)
	now = now.Add(time.Minute)
	runParallel(t, workers, cold, validate)
	checkConservation(t, "recovery", v)
}
