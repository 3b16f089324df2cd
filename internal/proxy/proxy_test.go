package proxy

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irs/internal/bloom"
	"irs/internal/ids"
	"irs/internal/ledger"
)

// fakeLedger is an in-process ledger with call counting: every
// identifier it answers is one query.
type fakeLedger struct {
	mu      sync.Mutex
	states  map[ids.PhotoID]ledger.State
	queries int
	err     error
}

func newFakeLedger() *fakeLedger {
	return &fakeLedger{states: make(map[ids.PhotoID]ledger.State)}
}

func (f *fakeLedger) query(id ids.PhotoID) (*ledger.StatusProof, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.queries++
	if f.err != nil {
		return nil, f.err
	}
	st, ok := f.states[id]
	if !ok {
		st = ledger.StateUnknown
	}
	return &ledger.StatusProof{ID: id, State: st, IssuedAt: time.Now()}, nil
}

// batch is the fake's BatchQueryFunc.
func (f *fakeLedger) batch(lid ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	return perID(f.query)(lid, batch)
}

// perID makes a BatchQueryFunc of a per-identifier answer: fn answers
// each identifier in turn, and its first error fails the batch.
func perID(fn func(ids.PhotoID) (*ledger.StatusProof, error)) BatchQueryFunc {
	return func(_ ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
		out := make([]*ledger.StatusProof, len(batch))
		for i, id := range batch {
			p, err := fn(id)
			if err != nil {
				return nil, err
			}
			out[i] = p
		}
		return out, nil
	}
}

func mustNewID(t testing.TB, l ids.LedgerID) ids.PhotoID {
	t.Helper()
	id, err := ids.New(l)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestFilterMissAnswersLocally(t *testing.T) {
	fl := newFakeLedger()
	v := NewValidator(Config{UseFilter: true, CacheCapacity: 10}, fl.batch)
	// Filter over one revoked id.
	revoked := mustNewID(t, 1)
	active := mustNewID(t, 1)
	f, err := bloom.NewWithEstimate(1024, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	f.Add(ledger.FilterKey(revoked))
	v.SetFilter(1, 1, f)
	fl.states[active] = ledger.StateActive
	fl.states[revoked] = ledger.StateRevoked

	res, err := v.Validate(active)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceFilter || res.State != ledger.StateActive {
		t.Errorf("got %v/%v, want filter/active", res.Source, res.State)
	}
	if fl.queries != 0 {
		t.Errorf("filter miss still queried the ledger %d times", fl.queries)
	}

	res, err = v.Validate(revoked)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceLedger || res.State != ledger.StateRevoked {
		t.Errorf("got %v/%v, want ledger/revoked", res.Source, res.State)
	}
	if res.Proof == nil {
		t.Error("ledger answer missing proof")
	}
	if fl.queries != 1 {
		t.Errorf("queries = %d", fl.queries)
	}
}

func TestNoFilterAlwaysQueries(t *testing.T) {
	fl := newFakeLedger()
	v := NewValidator(Config{UseFilter: true, CacheCapacity: 0}, fl.batch)
	// No filter installed for ledger 1 → cannot exclude revocation.
	id := mustNewID(t, 1)
	fl.states[id] = ledger.StateActive
	if _, err := v.Validate(id); err != nil {
		t.Fatal(err)
	}
	if fl.queries != 1 {
		t.Errorf("queries = %d, want 1 (no filter held)", fl.queries)
	}
}

func TestCacheHit(t *testing.T) {
	fl := newFakeLedger()
	v := NewValidator(Config{CacheCapacity: 16, CacheTTL: time.Minute}, fl.batch)
	id := mustNewID(t, 1)
	fl.states[id] = ledger.StateActive
	for i := 0; i < 5; i++ {
		res, err := v.Validate(id)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Source != SourceCache {
			t.Errorf("iteration %d source %v", i, res.Source)
		}
	}
	if fl.queries != 1 {
		t.Errorf("queries = %d, want 1", fl.queries)
	}
	st := v.Stats()
	if st.Total != 5 || st.CacheHits != 4 || st.LedgerQueries != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	fl := newFakeLedger()
	v := NewValidator(Config{CacheCapacity: 16, CacheTTL: time.Minute, Clock: clock}, fl.batch)
	id := mustNewID(t, 1)
	fl.states[id] = ledger.StateActive
	if _, err := v.Validate(id); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	// Owner revoked meanwhile; after TTL, the proxy must requery.
	fl.states[id] = ledger.StateRevoked
	res, err := v.Validate(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceLedger || res.State != ledger.StateRevoked {
		t.Errorf("after TTL: %v/%v", res.Source, res.State)
	}
	if fl.queries != 2 {
		t.Errorf("queries = %d, want 2", fl.queries)
	}
}

// TestCacheStaleBoundary pins the serving-window boundaries with an
// injected clock: fresh through [put, expires] inclusive, stale-only
// through (expires, expires+stale] inclusive, gone strictly after
// expires+stale. At no instant is an entry neither fresh nor
// stale-servable while still within the window, and at no instant past
// the window is it servable by either path.
func TestCacheStaleBoundary(t *testing.T) {
	const (
		ttl   = time.Minute
		stale = 30 * time.Second
	)
	t0 := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	now := t0
	clock := func() time.Time { return now }
	id := mustNewID(t, 1)
	proof := &ledger.StatusProof{ID: id, State: ledger.StateActive, IssuedAt: t0}

	for _, tc := range []struct {
		name        string
		at          time.Time
		fresh       bool
		staleServes bool
	}{
		{"just put", t0, true, true},
		{"mid ttl", t0.Add(ttl / 2), true, true},
		{"exactly expires", t0.Add(ttl), true, true},
		{"1ns past expires", t0.Add(ttl + time.Nanosecond), false, true},
		{"mid stale window", t0.Add(ttl + stale/2), false, true},
		{"exactly expires+stale", t0.Add(ttl + stale), false, true},
		{"1ns past expires+stale", t0.Add(ttl + stale + time.Nanosecond), false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now = t0
			c := newCache(16, ttl, stale, clock, 1)
			c.put(id, proof)
			now = tc.at
			var out ledger.StatusProof
			if got := c.get(id, &out); got != tc.fresh {
				t.Errorf("get servable = %v, want %v", got, tc.fresh)
			}
			// get may have dropped the entry past the window; getStale on a
			// fresh copy must agree with the combined predicate.
			now = t0
			c2 := newCache(16, ttl, stale, clock, 1)
			c2.put(id, proof)
			now = tc.at
			if got := c2.getStale(id, &out); got != tc.staleServes {
				t.Errorf("getStale servable = %v, want %v", got, tc.staleServes)
			}
			if tc.fresh && !tc.staleServes {
				t.Error("impossible state: fresh but not stale-servable")
			}
			// Past the window both paths must also have evicted the entry.
			if !tc.staleServes {
				if c.len() != 0 || c2.len() != 0 {
					t.Errorf("expired entry retained: get-path len %d, stale-path len %d", c.len(), c2.len())
				}
			}
		})
	}

	// Zero stale window: expired entries are dropped on sight and
	// getStale never serves.
	now = t0
	c := newCache(16, ttl, 0, clock, 1)
	c.put(id, proof)
	now = t0.Add(ttl + time.Nanosecond)
	var out ledger.StatusProof
	if c.get(id, &out) || c.getStale(id, &out) {
		t.Error("zero stale window still served an expired entry")
	}
	if c.len() != 0 {
		t.Error("zero stale window retained an expired entry")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	fl := newFakeLedger()
	v := NewValidator(Config{CacheCapacity: 2, CacheTTL: time.Hour}, fl.batch)
	a, b, c := mustNewID(t, 1), mustNewID(t, 1), mustNewID(t, 1)
	for _, id := range []ids.PhotoID{a, b, c} {
		fl.states[id] = ledger.StateActive
	}
	for _, id := range []ids.PhotoID{a, b, c} { // c evicts a
		if _, err := v.Validate(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Validate(a); err != nil { // must requery
		t.Fatal(err)
	}
	if fl.queries != 4 {
		t.Errorf("queries = %d, want 4 (a evicted)", fl.queries)
	}
	if v.cache.len() != 2 {
		t.Errorf("cache len %d", v.cache.len())
	}
}

func TestInvalidate(t *testing.T) {
	fl := newFakeLedger()
	v := NewValidator(Config{CacheCapacity: 4, CacheTTL: time.Hour}, fl.batch)
	id := mustNewID(t, 1)
	fl.states[id] = ledger.StateActive
	if _, err := v.Validate(id); err != nil {
		t.Fatal(err)
	}
	v.Invalidate(id)
	fl.states[id] = ledger.StateRevoked
	res, err := v.Validate(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != ledger.StateRevoked {
		t.Error("invalidate did not force a requery")
	}
}

func TestQueryError(t *testing.T) {
	fl := newFakeLedger()
	fl.err = errors.New("ledger down")
	v := NewValidator(Config{}, fl.batch)
	if _, err := v.Validate(mustNewID(t, 1)); err == nil {
		t.Error("ledger error swallowed")
	}
	vNil := NewValidator(Config{}, nil)
	if _, err := vNil.Validate(mustNewID(t, 1)); !errors.Is(err, ErrNoQuery) {
		t.Errorf("got %v, want ErrNoQuery", err)
	}
}

func TestResolveIsValidateMarshalled(t *testing.T) {
	// The relay egress's miss path: a filter answer carries no proof,
	// a ledger answer its proof's wire bytes, a failure StateUnknown.
	fl := newFakeLedger()
	v := NewValidator(Config{UseFilter: true, CacheCapacity: 10}, fl.batch)
	revoked, active := mustNewID(t, 1), mustNewID(t, 1)
	f, err := bloom.NewWithEstimate(1024, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	f.Add(ledger.FilterKey(revoked))
	v.SetFilter(1, 1, f)
	fl.states[revoked] = ledger.StateRevoked

	if st, proof, err := v.Resolve(active); err != nil || st != ledger.StateActive || proof != nil {
		t.Errorf("filter answer: %v %x %v", st, proof, err)
	}
	st, proof, err := v.Resolve(revoked)
	if err != nil || st != ledger.StateRevoked {
		t.Fatalf("ledger answer: %v %v", st, err)
	}
	p, err := ledger.UnmarshalProof(proof)
	if err != nil || p.ID != revoked || p.State != ledger.StateRevoked {
		t.Errorf("proof %+v %v", p, err)
	}
	v.Invalidate(revoked)
	fl.err = errors.New("ledger down")
	if st, proof, err := v.Resolve(revoked); err == nil || st != ledger.StateUnknown || proof != nil {
		t.Errorf("failed answer: %v %x %v", st, proof, err)
	}
}

func TestSingleflightCollapsesConcurrent(t *testing.T) {
	var mu sync.Mutex
	queries := 0
	release := make(chan struct{})
	v := NewValidator(Config{CacheCapacity: 4}, perID(func(id ids.PhotoID) (*ledger.StatusProof, error) {
		mu.Lock()
		queries++
		mu.Unlock()
		<-release
		return &ledger.StatusProof{ID: id, State: ledger.StateActive, IssuedAt: time.Now()}, nil
	}))
	id := mustNewID(t, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := v.Validate(id); err != nil {
				t.Errorf("validate: %v", err)
			}
		}()
	}
	// Give goroutines time to pile onto the inflight entry.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if queries != 1 {
		t.Errorf("upstream queries = %d, want 1 (singleflight)", queries)
	}
}

func TestStatsReset(t *testing.T) {
	fl := newFakeLedger()
	v := NewValidator(Config{}, fl.batch)
	if _, err := v.Validate(mustNewID(t, 1)); err != nil {
		t.Fatal(err)
	}
	v.resetStats()
	st := v.Stats()
	if st.Total != 0 || st.LedgerQueries != 0 {
		t.Errorf("stats after reset: %+v", st)
	}
}

func TestEpochTracking(t *testing.T) {
	v := NewValidator(Config{UseFilter: true}, nil)
	if v.Epoch(1) != 0 {
		t.Error("fresh validator should hold epoch 0")
	}
	f, err := bloom.New(1<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	v.SetFilter(1, 7, f)
	if v.Epoch(1) != 7 {
		t.Errorf("epoch = %d", v.Epoch(1))
	}
}

func TestSingleflightPropagatesErrors(t *testing.T) {
	// Against a persistently failing upstream every caller must still
	// see the error — but waiters re-enter once before giving up, so
	// the collapsed round costs between 2 upstream calls (leader plus
	// one shared retry flight) and one per caller, never more. The
	// inflight entry must not wedge either way.
	var mu sync.Mutex
	calls := 0
	fail := true
	release := make(chan struct{})
	v := NewValidator(Config{CacheCapacity: 4}, perID(func(id ids.PhotoID) (*ledger.StatusProof, error) {
		mu.Lock()
		calls++
		shouldFail := fail
		mu.Unlock()
		<-release
		if shouldFail {
			return nil, errors.New("upstream exploded")
		}
		return &ledger.StatusProof{ID: id, State: ledger.StateActive, IssuedAt: time.Now()}, nil
	}))
	id := mustNewID(t, 1)
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = v.Validate(id)
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d got no error", i)
		}
	}
	mu.Lock()
	if calls < 2 || calls > 6 {
		t.Fatalf("upstream called %d times, want 2..6 (leader + one bounded re-entry per waiter)", calls)
	}
	fail = false
	mu.Unlock()
	// Recovery: a fresh call retries and succeeds.
	release = make(chan struct{})
	close(release)
	res, err := v.Validate(id)
	if err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if res.State != ledger.StateActive {
		t.Errorf("retry state %v", res.State)
	}
}

func TestSingleflightHerdRecoversFromLeaderFailure(t *testing.T) {
	// The herd regression from attack (b): a transient upstream fault
	// hits exactly the leader's call, then the upstream recovers. The
	// old singleflight handed the leader's error to every waiter —
	// turning one failed round trip into a whole herd of failures even
	// though a retry would have succeeded. With waiter re-entry, only
	// the leader itself fails; every waiter re-enters once and is
	// answered by the recovered upstream, regardless of scheduling.
	// Each wave invalidates the celebrity id (its takedown just
	// propagated) and faults the wave's first call again; meanwhile
	// every herd member also validates cached collateral ids, which
	// the fault must not touch.
	const herd, waves, collateral = 32, 4, 2
	var mu sync.Mutex
	calls, failNext := 0, false
	var release chan struct{}
	v := NewValidator(Config{CacheCapacity: 128}, perID(func(id ids.PhotoID) (*ledger.StatusProof, error) {
		mu.Lock()
		calls++
		fail, held := failNext, release
		failNext = false
		mu.Unlock()
		if fail {
			<-held // hold the herd on this flight, then fail it
			return nil, errors.New("transient fault")
		}
		return &ledger.StatusProof{ID: id, State: ledger.StateActive, IssuedAt: time.Now()}, nil
	}))
	id := mustNewID(t, 1)
	warm := make([]ids.PhotoID, herd*collateral)
	for i := range warm {
		warm[i] = mustNewID(t, 1)
		if _, err := v.Validate(warm[i]); err != nil {
			t.Fatal(err)
		}
	}
	for wave := 0; wave < waves; wave++ {
		v.Invalidate(id)
		mu.Lock()
		calls, failNext, release = 0, true, make(chan struct{})
		mu.Unlock()
		var wg sync.WaitGroup
		errs := make([]error, herd)
		var collateralFailed atomic.Int32
		for i := 0; i < herd; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = v.Validate(id)
				for _, c := range warm[i*collateral : (i+1)*collateral] {
					if _, err := v.Validate(c); err != nil {
						collateralFailed.Add(1)
					}
				}
			}(i)
		}
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		close(release)
		mu.Unlock()
		wg.Wait()
		failed := 0
		for _, err := range errs {
			if err != nil {
				failed++
			}
		}
		// Exactly the caller whose own attempt was the failing flight
		// fails; callers that merely waited succeed via re-entry.
		if failed != 1 {
			t.Fatalf("wave %d: %d of %d herd callers failed after a single transient fault; want exactly 1", wave, failed, herd)
		}
		if n := collateralFailed.Load(); n != 0 {
			t.Fatalf("wave %d: %d collateral validations failed; want 0", wave, n)
		}
		mu.Lock()
		if calls < 2 || calls > herd+1 {
			mu.Unlock()
			t.Fatalf("wave %d: upstream called %d times, want 2..%d", wave, calls, herd+1)
		}
		mu.Unlock()
	}
}

func TestSingleflightRetiresFlightBeforeWaking(t *testing.T) {
	// The order inside the leader's exit: a failed flight must leave the
	// map before its done channel closes. Otherwise a woken waiter can
	// re-enter, find the same failed flight still registered, and spend
	// its one re-entry failing on it again. The test stalls the leader
	// at that exit by holding the stripe lock across the failure: done
	// must stay open for as long as the flight is registered.
	var mu sync.Mutex
	calls := 0
	entered := make(chan struct{})
	release := make(chan struct{})
	v := NewValidator(Config{CacheCapacity: 4}, perID(func(id ids.PhotoID) (*ledger.StatusProof, error) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			close(entered)
			<-release
			return nil, errors.New("transient fault")
		}
		return &ledger.StatusProof{ID: id, State: ledger.StateActive, IssuedAt: time.Now()}, nil
	}))
	id := mustNewID(t, 1)
	var wg sync.WaitGroup
	var leaderErr, waiterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderErr = v.Validate(id)
	}()
	<-entered // the leader's flight is registered and its query is parked
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, waiterErr = v.Validate(id)
	}()
	// Let the waiter join the flight. Not load-bearing: one that arrives
	// late starts a fresh flight, which is the outcome asserted anyway.
	time.Sleep(20 * time.Millisecond)

	s := &v.sf[id.Hash64()&v.sfMask]
	s.mu.Lock()
	e, ok := s.m[id]
	fl := e.fl
	if !ok {
		s.mu.Unlock()
		t.Fatal("leader's flight is not registered while its query is in progress")
	}
	close(release) // fail the leader; it cannot retire the flight while we hold the lock
	select {
	case <-fl.done:
		t.Error("failed flight woke its waiters while still registered: a re-entering waiter rejoins it and fails twice")
	case <-time.After(100 * time.Millisecond):
	}
	s.mu.Unlock()
	wg.Wait()

	if leaderErr == nil {
		t.Error("leader's own failed attempt returned no error")
	}
	if waiterErr != nil {
		t.Errorf("waiter failed after re-entry: %v (only the leader's attempt failed)", waiterErr)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Errorf("upstream called %d times, want 2: the failed flight, then the re-entrant's fresh one", calls)
	}
}

// TestPageHerdAsksSharedIDOnce is the herd on the page path: eight
// concurrent ValidateBatch pages, each the shared, just invalidated id
// plus one id of its own. A StatusBatch asking the shared id is held at
// the ledger until every other page has fetched its own id; a page
// registers all its ids before it fetches any, so by then each of them
// waits on the flight of the page that leads the shared id (without
// singleflight, all eight are held until the deadline). Without a
// fault the shared id is asked upstream once. With one fault on the
// leader's StatusBatch exactly the leader's page fails, and every other
// page re-enters and succeeds.
func TestPageHerdAsksSharedIDOnce(t *testing.T) {
	const pages = 8
	for _, fault := range []bool{false, true} {
		shared := mustNewID(t, 1)
		var (
			mu        sync.Mutex
			hold      bool
			armed     bool
			leaderOwn ids.PhotoID
			asked     = map[ids.PhotoID]int{}
		)
		ownAsked := make(chan struct{}, pages)
		release := make(chan struct{})
		v := NewValidator(Config{CacheCapacity: 64, CacheTTL: time.Hour}, func(_ ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
			mu.Lock()
			withShared := false
			for _, id := range batch {
				asked[id]++
				withShared = withShared || id == shared
			}
			held := withShared && hold
			for _, id := range batch {
				if held && id != shared && leaderOwn == (ids.PhotoID{}) {
					leaderOwn = id
				}
			}
			fail := withShared && armed
			armed = armed && !withShared
			mu.Unlock()
			if !withShared {
				ownAsked <- struct{}{}
			}
			if held {
				<-release
			}
			if fail {
				return nil, errors.New("transient fault")
			}
			out := make([]*ledger.StatusProof, len(batch))
			for i, id := range batch {
				out[i] = &ledger.StatusProof{ID: id, State: ledger.StateRevoked, IssuedAt: time.Now()}
			}
			return out, nil
		})
		if _, err := v.ValidateBatch([]ids.PhotoID{shared}); err != nil {
			t.Fatal(err)
		}
		v.Invalidate(shared)
		v.resetStats()
		mu.Lock()
		hold, armed, asked = true, fault, map[ids.PhotoID]int{}
		mu.Unlock()

		own := make([]ids.PhotoID, pages)
		res := make([][]Result, pages)
		errs := make([]error, pages)
		var wg sync.WaitGroup
		for p := range own {
			own[p] = mustNewID(t, 1)
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				res[p], errs[p] = v.ValidateBatch([]ids.PhotoID{own[p], shared})
			}(p)
		}
		deadline := time.After(10 * time.Second)
		for p := 0; p < pages-1; p++ {
			select {
			case <-ownAsked:
			case <-deadline:
				t.Errorf("fault=%v: only %d of %d other pages fetched their own id beside the held shared one", fault, p, pages-1)
				p = pages
			}
		}
		close(release)
		wg.Wait()

		mu.Lock()
		sharedAsks := asked[shared]
		mu.Unlock()
		failed, proofs := 0, map[*ledger.StatusProof]bool{}
		for p, err := range errs {
			if err != nil {
				failed++
				if !fault || own[p] != leaderOwn {
					t.Errorf("fault=%v: page %d failed (leader %v): %v", fault, p, own[p] == leaderOwn, err)
				}
				continue
			}
			r := res[p][1]
			if r.Source != SourceLedger || r.State != ledger.StateRevoked || r.Proof == nil || r.Proof.ID != shared {
				t.Errorf("fault=%v: page %d shared answer %v/%v %+v", fault, p, r.Source, r.State, r.Proof)
			} else if proofs[r.Proof] {
				t.Errorf("fault=%v: page %d shares its shared proof with another page", fault, p)
			}
			proofs[r.Proof] = true
		}
		st := v.Stats()
		if fault {
			if failed != 1 {
				t.Errorf("fault=%v: %d of %d pages failed after one fault on the leader's StatusBatch; want the leader's alone", fault, failed, pages)
			}
			if sharedAsks < 2 || sharedAsks > pages {
				t.Errorf("fault=%v: shared id asked %d times, want 2..%d (the failed flight, then re-entry)", fault, sharedAsks, pages)
			}
			if st.Unavailable != 2 || st.LedgerQueries != 2*pages-2 {
				t.Errorf("fault=%v: stats %+v, want the leader's two occurrences unavailable", fault, st)
			}
		} else if sharedAsks != 1 {
			t.Errorf("fault=%v: shared id asked upstream %d times by %d concurrent pages, want 1 (singleflight)", fault, sharedAsks, pages)
		}
		if st.Total != 2*pages {
			t.Errorf("fault=%v: stats %+v, want %d occurrences", fault, st, 2*pages)
		}
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	fl := newFakeLedger()
	fl.err = errors.New("down")
	v := NewValidator(Config{CacheCapacity: 8, CacheTTL: time.Hour}, fl.batch)
	id := mustNewID(t, 1)
	if _, err := v.Validate(id); err == nil {
		t.Fatal("error swallowed")
	}
	fl.mu.Lock()
	fl.err = nil
	fl.states[id] = ledger.StateActive
	fl.mu.Unlock()
	res, err := v.Validate(id)
	if err != nil {
		t.Fatalf("recovered validate: %v", err)
	}
	if res.Source != SourceLedger {
		t.Errorf("post-error answer from %v — was the failure cached?", res.Source)
	}
}
