package proxy

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
)

// failClock returns a mutable fake clock.
func fakeClock(start time.Time) (func() time.Time, func(time.Duration)) {
	now := start
	return func() time.Time { return now }, func(d time.Duration) { now = now.Add(d) }
}

func TestFailClosedPropagatesAndCountsUnavailable(t *testing.T) {
	fl := newFakeLedger()
	fl.err = errors.New("ledger down")
	v := NewValidator(Config{CacheCapacity: 16}, fl.batch)
	if _, err := v.Validate(mustNewID(t, 1)); err == nil {
		t.Fatal("fail-closed validation of an unreachable ledger succeeded")
	}
	if got := v.Stats().Unavailable; got != 1 {
		t.Errorf("Unavailable = %d, want 1", got)
	}
}

func TestFailOpenFreshServesStaleWithinBound(t *testing.T) {
	clock, advance := fakeClock(time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC))
	fl := newFakeLedger()
	v := NewValidator(Config{
		CacheCapacity: 16,
		CacheTTL:      time.Minute,
		Degrade:       DegradePolicy{Mode: DegradeFailOpenFresh},
		Clock:         clock,
	}, fl.batch)
	id := mustNewID(t, 1)
	fl.states[id] = ledger.StateActive
	if _, err := v.Validate(id); err != nil {
		t.Fatal(err)
	}

	// Proof expired, ledger down: the stale proof must answer.
	advance(2 * time.Minute)
	fl.err = errors.New("ledger down")
	res, err := v.Validate(id)
	if err != nil {
		t.Fatalf("fail-open validation errored: %v", err)
	}
	if res.Source != SourceStale || res.State != ledger.StateActive {
		t.Errorf("got %v/%v, want stale/active", res.Source, res.State)
	}
	if res.Proof == nil {
		t.Error("stale answer carries no proof")
	}
	st := v.Stats()
	if st.StaleServed != 1 || st.Unavailable != 0 {
		t.Errorf("stats %+v, want StaleServed=1 Unavailable=0", st)
	}

	// Beyond the staleness bound the entry is unusable: fail closed.
	advance(2 * time.Hour)
	if _, err := v.Validate(id); err == nil {
		t.Fatal("proof beyond the staleness bound was served")
	}
	if got := v.Stats().Unavailable; got != 1 {
		t.Errorf("Unavailable = %d, want 1", got)
	}
}

func TestFailOpenFreshStaleRequeriesOnRecovery(t *testing.T) {
	clock, advance := fakeClock(time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC))
	fl := newFakeLedger()
	v := NewValidator(Config{
		CacheCapacity: 16,
		CacheTTL:      time.Minute,
		Degrade:       DegradePolicy{Mode: DegradeFailOpenFresh},
		Clock:         clock,
	}, fl.batch)
	id := mustNewID(t, 1)
	fl.states[id] = ledger.StateActive
	if _, err := v.Validate(id); err != nil {
		t.Fatal(err)
	}
	// Expired but the ledger is healthy: the stale entry must NOT
	// short-circuit the requery — revocations still propagate within
	// the TTL whenever the ledger answers.
	advance(2 * time.Minute)
	fl.states[id] = ledger.StateRevoked
	res, err := v.Validate(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceLedger || res.State != ledger.StateRevoked {
		t.Errorf("got %v/%v, want ledger/revoked (stale entry must not mask a live ledger)", res.Source, res.State)
	}
}

func TestBreakerOpensAndFastFails(t *testing.T) {
	clock, _ := fakeClock(time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC))
	fl := newFakeLedger()
	fl.err = errors.New("ledger down")
	v := NewValidator(Config{
		Breaker: BreakerConfig{Enabled: true},
		Clock:   clock,
	}, fl.batch)
	for i := 0; i < breakerThreshold; i++ {
		if got := v.BreakerState(1); got != "closed" {
			t.Fatalf("after %d failures breaker is %q, want closed", i, got)
		}
		if _, err := v.Validate(mustNewID(t, 1)); err == nil {
			t.Fatal("down ledger validated")
		}
	}
	if got := v.BreakerState(1); got != "open" {
		t.Fatalf("after %d failures breaker is %q, want open", breakerThreshold, got)
	}
	before := fl.queries
	_, err := v.Validate(mustNewID(t, 1))
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker validation error = %v, want ErrBreakerOpen", err)
	}
	if fl.queries != before {
		t.Errorf("open breaker still queried the ledger")
	}
	if got := v.Stats().BreakerFastFails; got == 0 {
		t.Error("fast fails not counted")
	}
	// Other ledgers are unaffected: breakers are per ledger.
	if _, err := v.Validate(mustNewID(t, 2)); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Errorf("ledger 2 validation = %v, want the raw ledger error", err)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	clock, advance := fakeClock(time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC))
	fl := newFakeLedger()
	fl.err = errors.New("ledger down")
	v := NewValidator(Config{
		Breaker: BreakerConfig{Enabled: true},
		Clock:   clock,
	}, fl.batch)
	id := mustNewID(t, 1)
	fl.states[id] = ledger.StateActive
	for i := 0; i < breakerThreshold; i++ {
		_, _ = v.Validate(id)
	}
	if got := v.BreakerState(1); got != "open" {
		t.Fatalf("breaker %q, want open", got)
	}

	// Probe while still down: re-opens for another cooldown.
	advance(6 * time.Second)
	before := fl.queries
	if _, err := v.Validate(id); err == nil {
		t.Fatal("probe against a down ledger succeeded")
	}
	if fl.queries != before+1 {
		t.Fatalf("half-open admitted %d queries, want exactly 1 probe", fl.queries-before)
	}
	if got := v.BreakerState(1); got != "open" {
		t.Fatalf("after failed probe breaker %q, want open", got)
	}

	// Recovery: next probe succeeds and closes the breaker.
	advance(6 * time.Second)
	fl.err = nil
	res, err := v.Validate(id)
	if err != nil {
		t.Fatalf("recovered probe: %v", err)
	}
	if res.State != ledger.StateActive {
		t.Errorf("probe state %v", res.State)
	}
	if got := v.BreakerState(1); got != "closed" {
		t.Fatalf("after successful probe breaker %q, want closed", got)
	}
}

func TestBreakerBatchFastFail(t *testing.T) {
	clock, _ := fakeClock(time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC))
	down := errors.New("ledger down")
	calls := 0
	v := NewValidator(Config{
		CacheCapacity: 16,
		Breaker:       BreakerConfig{Enabled: true},
		Clock:         clock,
	}, func(lid ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
		calls++
		return nil, down
	})
	batch := []ids.PhotoID{mustNewID(t, 1), mustNewID(t, 1)}
	for i := 0; i < breakerThreshold; i++ {
		if _, err := v.ValidateBatch(batch); err == nil {
			t.Fatal("down ledger batch validated")
		}
	}
	if got := v.BreakerState(1); got != "open" {
		t.Fatalf("breaker %q, want open", got)
	}
	before := calls
	_, err := v.ValidateBatch(batch)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker batch error = %v, want ErrBreakerOpen", err)
	}
	if calls != before {
		t.Error("open breaker still issued a batch query")
	}
}

// Concurrent pages race for the half-open slot after a recovered
// outage: exactly one is admitted as the probe, everyone who arrives
// while it is in flight fast-fails without touching the ledger, and its
// answer closes the breaker for all of them. (The outage tests send
// their recovery probe serially from the phase barrier, so this is
// where half-open admission runs under contention.)
func TestBreakerHalfOpenConcurrentAdmission(t *testing.T) {
	const workers = 8
	clock, advance := fakeClock(time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC))
	var down atomic.Bool
	var calls atomic.Int64
	release := make(chan struct{})
	v := NewValidator(Config{
		CacheCapacity: 64,
		Breaker:       BreakerConfig{Enabled: true},
		Clock:         clock,
	}, func(lid ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
		if down.Load() {
			return nil, errors.New("ledger down")
		}
		calls.Add(1)
		<-release
		out := make([]*ledger.StatusProof, len(batch))
		for i, id := range batch {
			out[i] = &ledger.StatusProof{ID: id, State: ledger.StateActive}
		}
		return out, nil
	})

	// Distinct ids per worker: nobody rides another's singleflight.
	pages := make([][]ids.PhotoID, workers)
	for w := range pages {
		pages[w] = []ids.PhotoID{mustNewID(t, 1), mustNewID(t, 1)}
	}
	down.Store(true)
	for i := 0; i < breakerThreshold; i++ {
		if _, err := v.ValidateBatch(pages[0]); err == nil {
			t.Fatal("down ledger batch validated")
		}
	}
	if got := v.BreakerState(1); got != "open" {
		t.Fatalf("breaker %q, want open", got)
	}
	down.Store(false)
	advance(6 * time.Second)

	round := func() chan error {
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				_, err := v.ValidateBatch(pages[w])
				errs <- err
			}(w)
		}
		return errs
	}
	await := func(errs chan error) error {
		t.Helper()
		select {
		case err := <-errs:
			return err
		case <-time.After(10 * time.Second):
			t.Fatalf("page still blocked with %d queries at the ledger, want 1 probe", calls.Load())
			return nil
		}
	}

	// The probe is held at the ledger until every other page has been
	// turned away, so the count below does not depend on who won.
	errs := round()
	for i := 0; i < workers-1; i++ {
		if err := await(errs); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("page beside the in-flight probe: %v, want ErrBreakerOpen", err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("half-open admitted %d queries, want exactly 1 probe", got)
	}
	if got := v.BreakerState(1); got != "half-open" {
		t.Fatalf("breaker %q with the probe in flight, want half-open", got)
	}
	close(release)
	if err := await(errs); err != nil {
		t.Fatalf("recovered probe: %v", err)
	}
	if got := v.BreakerState(1); got != "closed" {
		t.Fatalf("after successful probe breaker %q, want closed", got)
	}

	// Closed again: the same pages all go through.
	errs = round()
	for i := 0; i < workers; i++ {
		if err := await(errs); err != nil {
			t.Fatalf("page after recovery: %v", err)
		}
	}
	if got, want := v.Stats().BreakerFastFails, uint64(2*(workers-1)); got != want {
		t.Errorf("BreakerFastFails = %d, want %d (per occurrence)", got, want)
	}
}

func TestFailOpenFreshBatchMixesStaleAndLive(t *testing.T) {
	clock, advance := fakeClock(time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC))
	warm := mustNewID(t, 1) // cached before the outage
	cold := mustNewID(t, 1) // never seen: no stale fallback
	downLedgers := map[ids.LedgerID]bool{}
	v := NewValidator(Config{
		CacheCapacity: 16,
		CacheTTL:      time.Minute,
		Degrade:       DegradePolicy{Mode: DegradeFailOpenFresh},
		Clock:         clock,
	}, func(lid ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
		if downLedgers[lid] {
			return nil, fmt.Errorf("ledger %d down", lid)
		}
		out := make([]*ledger.StatusProof, len(batch))
		for i, id := range batch {
			out[i] = &ledger.StatusProof{ID: id, State: ledger.StateActive}
		}
		return out, nil
	})

	if _, err := v.ValidateBatch([]ids.PhotoID{warm}); err != nil {
		t.Fatal(err)
	}
	advance(2 * time.Minute) // warm's proof is now expired-but-stale
	downLedgers[1] = true

	// Batch of only the warm id: degrades wholly to stale, no error.
	res, err := v.ValidateBatch([]ids.PhotoID{warm, warm})
	if err != nil {
		t.Fatalf("stale-servable batch errored: %v", err)
	}
	for i, r := range res {
		if r.Source != SourceStale || r.State != ledger.StateActive {
			t.Errorf("result %d: %v/%v, want stale/active", i, r.Source, r.State)
		}
	}
	if got := v.Stats().StaleServed; got != 2 {
		t.Errorf("StaleServed = %d, want 2 (per occurrence)", got)
	}

	// A cold id has nothing to fall back on: the batch fails closed.
	if _, err := v.ValidateBatch([]ids.PhotoID{warm, cold}); err == nil {
		t.Fatal("batch with an unservable id succeeded")
	}
	if got := v.Stats().Unavailable; got == 0 {
		t.Error("unservable occurrences not counted")
	}
}

func TestDegradeModeStrings(t *testing.T) {
	if DegradeFailClosed.String() != "fail-closed" || DegradeFailOpenFresh.String() != "fail-open-fresh" {
		t.Error("DegradeMode strings changed")
	}
	var m DegradeMode
	if m != DegradeFailClosed {
		t.Error("zero value of DegradeMode must fail closed")
	}
}
