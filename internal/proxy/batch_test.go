package proxy

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"irs/internal/bloom"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

// batchEnv is a two-validator rig over one fake ledger: pages pushed
// through seq one Validate at a time and through bat as ValidateBatch
// calls must agree on every Result and every Stats counter.
type batchEnv struct {
	fl  *fakeLedger
	seq *Validator
	bat *Validator
}

func newBatchEnv(t *testing.T, cfg Config) *batchEnv {
	t.Helper()
	fl := newFakeLedger()
	e := &batchEnv{fl: fl}
	e.seq = NewValidator(cfg, fl.query)
	e.bat = NewValidator(cfg, fl.query)
	e.bat.SetBatchQuery(func(_ ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
		out := make([]*ledger.StatusProof, len(batch))
		for i, id := range batch {
			p, err := fl.query(id)
			if err != nil {
				return nil, err
			}
			out[i] = p
		}
		return out, nil
	})
	return e
}

// runPage drives both validators and compares.
func (e *batchEnv) runPage(t *testing.T, page []ids.PhotoID) {
	t.Helper()
	want := make([]Result, len(page))
	for i, id := range page {
		r, err := e.seq.Validate(id)
		if err != nil {
			t.Fatalf("sequential validate: %v", err)
		}
		want[i] = r
	}
	got, err := e.bat.ValidateBatch(page)
	if err != nil {
		t.Fatalf("batch validate: %v", err)
	}
	for i := range page {
		if got[i].State != want[i].State || got[i].Source != want[i].Source {
			t.Errorf("result %d: batch %v/%v, sequential %v/%v",
				i, got[i].Source, got[i].State, want[i].Source, want[i].State)
		}
		if (got[i].Proof == nil) != (want[i].Proof == nil) {
			t.Errorf("result %d: proof presence differs", i)
		}
		if got[i].Proof != nil && got[i].Proof.ID != page[i] {
			t.Errorf("result %d: proof attests %v, want %v", i, got[i].Proof.ID, page[i])
		}
	}
	if s, b := e.seq.Stats(), e.bat.Stats(); s != b {
		t.Errorf("stats diverge: sequential %+v, batch %+v", s, b)
	}
}

// TestValidateBatchMatchesSequential is the equivalence contract: same
// Results, same counters, across filter hits, cache hits, misses, and
// in-page duplicates.
func TestValidateBatchMatchesSequential(t *testing.T) {
	e := newBatchEnv(t, Config{UseFilter: true, CacheCapacity: 64, CacheTTL: time.Hour})

	var active, revoked []ids.PhotoID
	for i := 0; i < 20; i++ {
		id := mustNewID(t, 1)
		e.fl.states[id] = ledger.StateActive
		active = append(active, id)
	}
	for i := 0; i < 5; i++ {
		id := mustNewID(t, 1)
		e.fl.states[id] = ledger.StateRevoked
		revoked = append(revoked, id)
	}
	f, err := bloom.NewWithEstimate(64, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range revoked {
		f.Add(ledger.FilterKey(id))
	}
	e.seq.SetFilter(1, 1, f.Clone())
	e.bat.SetFilter(1, 1, f.Clone())

	// Page 1: mixes filter answers, ledger queries, and duplicates
	// (first occurrence → ledger, repeats → the just-cached proof).
	page := []ids.PhotoID{
		active[0], revoked[0], active[1], revoked[0], active[0],
		revoked[1], revoked[2], active[2], revoked[1],
	}
	e.runPage(t, page)
	// Page 2 re-traverses page 1 plus fresh ids: now mostly cache hits.
	e.runPage(t, append(append([]ids.PhotoID{}, page...), revoked[3], active[3]))
}

// TestValidateBatchMatchesSequentialRandomPages pushes seeded pages of
// every size up to the wire limit, drawn with heavy repetition from a
// small universe over two ledgers, through the same contract: the flat
// occurrence lists and the identifier table inside ValidateBatch must
// file every repeat under its first occurrence, whatever the page shape.
func TestValidateBatchMatchesSequentialRandomPages(t *testing.T) {
	e := newBatchEnv(t, Config{UseFilter: true, CacheCapacity: 1024, CacheTTL: time.Hour})
	rng := rand.New(rand.NewSource(21))
	f, err := bloom.NewWithEstimate(512, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	universe := make([]ids.PhotoID, 300)
	for i := range universe {
		universe[i] = mustNewID(t, ids.LedgerID(1+i%2))
		e.fl.states[universe[i]] = ledger.State(rng.Intn(4))
		if i%3 != 0 {
			f.Add(ledger.FilterKey(universe[i]))
		}
	}
	for _, lid := range []ids.LedgerID{1, 2} {
		e.seq.SetFilter(lid, 1, f.Clone())
		e.bat.SetFilter(lid, 1, f.Clone())
	}
	for _, n := range []int{1, 2, 3, 47, 48, 127, 128, 129, wire.MaxStatusBatch} {
		page := make([]ids.PhotoID, n)
		for i := range page {
			page[i] = universe[rng.Intn(len(universe))]
		}
		e.runPage(t, page)
		// The next page starts cold again for half of what can be cached.
		for i := 1; i < len(universe); i += 3 {
			e.seq.Invalidate(universe[i])
			e.bat.Invalidate(universe[i])
		}
	}
}

// TestValidateBatchMatchesSequentialNoCache covers the cache-disabled
// regime (every must-query occurrence is a ledger answer).
func TestValidateBatchMatchesSequentialNoCache(t *testing.T) {
	e := newBatchEnv(t, Config{})
	a, b := mustNewID(t, 1), mustNewID(t, 1)
	e.fl.states[a] = ledger.StateActive
	e.fl.states[b] = ledger.StateRevoked
	e.runPage(t, []ids.PhotoID{a, b, a, a, b})
}

// TestValidateBatchFallbackPerID: without a BatchQueryFunc the batch
// path resolves per id but keeps the same results and counters.
func TestValidateBatchFallbackPerID(t *testing.T) {
	fl := newFakeLedger()
	seq := NewValidator(Config{CacheCapacity: 16, CacheTTL: time.Hour}, fl.query)
	bat := NewValidator(Config{CacheCapacity: 16, CacheTTL: time.Hour}, fl.query)
	var page []ids.PhotoID
	for i := 0; i < 6; i++ {
		id := mustNewID(t, 1)
		fl.states[id] = ledger.StateActive
		page = append(page, id)
	}
	page = append(page, page[0])
	want := make([]Result, len(page))
	for i, id := range page {
		r, err := seq.Validate(id)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got, err := bat.ValidateBatch(page)
	if err != nil {
		t.Fatal(err)
	}
	for i := range page {
		if got[i].State != want[i].State || got[i].Source != want[i].Source {
			t.Errorf("result %d: %v/%v vs %v/%v", i, got[i].Source, got[i].State, want[i].Source, want[i].State)
		}
	}
	if s, b := seq.Stats(), bat.Stats(); s != b {
		t.Errorf("stats diverge: %+v vs %+v", s, b)
	}
}

// TestValidateBatchGroupsPerLedger: a mixed-ledger page produces one
// upstream call per ledger, ids in first-appearance order.
func TestValidateBatchGroupsPerLedger(t *testing.T) {
	var mu sync.Mutex
	calls := make(map[ids.LedgerID][]ids.PhotoID)
	v := NewValidator(Config{}, nil)
	v.SetBatchQuery(func(lid ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
		mu.Lock()
		calls[lid] = append(calls[lid], batch...)
		mu.Unlock()
		out := make([]*ledger.StatusProof, len(batch))
		for i, id := range batch {
			out[i] = &ledger.StatusProof{ID: id, State: ledger.StateActive, IssuedAt: time.Now()}
		}
		return out, nil
	})
	l1a, l1b := mustNewID(t, 1), mustNewID(t, 1)
	l2a := mustNewID(t, 2)
	l3a := mustNewID(t, 3)
	page := []ids.PhotoID{l1a, l2a, l3a, l1b, l2a}
	res, err := v.ValidateBatch(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(page) {
		t.Fatalf("got %d results", len(res))
	}
	if len(calls) != 3 {
		t.Fatalf("upstream hit %d ledgers, want 3", len(calls))
	}
	if len(calls[1]) != 2 || calls[1][0] != l1a || calls[1][1] != l1b {
		t.Errorf("ledger 1 saw %v, want [%v %v]", calls[1], l1a, l1b)
	}
	if len(calls[2]) != 1 || calls[2][0] != l2a {
		t.Errorf("ledger 2 saw %v (duplicate not collapsed?)", calls[2])
	}
}

// TestValidateBatchUpstreamErrors: failures and malformed upstream
// responses surface as errors, not silent wrong answers.
func TestValidateBatchUpstreamErrors(t *testing.T) {
	id := mustNewID(t, 1)
	cases := []struct {
		name string
		fn   BatchQueryFunc
	}{
		{"error", func(ids.LedgerID, []ids.PhotoID) ([]*ledger.StatusProof, error) {
			return nil, errors.New("ledger down")
		}},
		{"short response", func(_ ids.LedgerID, b []ids.PhotoID) ([]*ledger.StatusProof, error) {
			return nil, nil
		}},
		{"wrong id", func(_ ids.LedgerID, b []ids.PhotoID) ([]*ledger.StatusProof, error) {
			wrong := mustNewID(t, 1)
			out := make([]*ledger.StatusProof, len(b))
			for i := range out {
				out[i] = &ledger.StatusProof{ID: wrong, State: ledger.StateActive}
			}
			return out, nil
		}},
	}
	for _, tc := range cases {
		v := NewValidator(Config{}, nil)
		v.SetBatchQuery(tc.fn)
		if _, err := v.ValidateBatch([]ids.PhotoID{id}); err == nil {
			t.Errorf("%s: error swallowed", tc.name)
		}
	}
	// No query of any kind configured.
	v := NewValidator(Config{}, nil)
	if _, err := v.ValidateBatch([]ids.PhotoID{id}); !errors.Is(err, ErrNoQuery) {
		t.Errorf("got %v, want ErrNoQuery", err)
	}
}

// failingService returns an error from every filter endpoint; used to
// test refresh error aggregation.
type failingService struct {
	wire.Loopback
	err error
}

func (f *failingService) FilterSync(uint64, []byte) ([]byte, uint64, error) { return nil, 0, f.err }
func (f *failingService) Keys() (*wire.KeysResponse, error)                 { return nil, f.err }
func (f *failingService) Status(ids.PhotoID) (*ledger.StatusProof, error)   { return nil, f.err }

// TestRefreshFiltersCollectsErrors: one bad ledger must not stop the
// others from refreshing, and the aggregate error must name it while
// unwrapping to the lowest-numbered failure.
func TestRefreshFiltersCollectsErrors(t *testing.T) {
	good, err := ledger.New(ledger.Config{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if _, err := good.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	dir := wire.NewDirectory()
	dir.Register(2, &wire.Loopback{L: good})
	dir.Register(3, &failingService{err: boom})
	dir.Register(5, &failingService{err: errors.New("also down")})

	v := NewValidator(Config{UseFilter: true}, nil)
	err = v.RefreshFilters(dir)
	if err == nil {
		t.Fatal("refresh errors swallowed")
	}
	var re *RefreshError
	if !errors.As(err, &re) {
		t.Fatalf("error type %T", err)
	}
	if len(re.Failed) != 2 || re.Failed[0].Ledger != 3 || re.Failed[1].Ledger != 5 {
		t.Fatalf("failed set %v", re.Failed)
	}
	if !errors.Is(err, boom) {
		t.Error("Unwrap chain does not reach the lowest-numbered ledger's error")
	}
	if v.Epoch(2) == 0 {
		t.Error("healthy ledger did not refresh alongside the failures")
	}
}

// revokedRecords fabricates minimal revoked claim records for
// RestoreRecords into an in-memory ledger — enough to shape its
// revocation filter without the owner claiming ceremony.
func revokedRecords(t testing.TB, lid ids.LedgerID, n int) []ledger.Record {
	t.Helper()
	recs := make([]ledger.Record, n)
	for i := range recs {
		recs[i] = ledger.Record{ID: mustNewID(t, lid), State: ledger.StateRevoked}
	}
	return recs
}

// heldFilterHash peeks at the validator's installed filter for a ledger
// (white-box; the refresh tests assert convergence on exact bits).
func heldFilterHash(v *Validator, lid ids.LedgerID) [32]byte {
	return v.fset.Load().filters[lid].f.Hash()
}

// TestRefreshFiltersSurvivesFilterRebuild: a ledger whose revoked
// population outgrows the held filter resizes m/k on the next
// snapshot. A proxy mid-stream (holding the old epoch) must converge
// on the new filter via a full pull, not error the refresh.
func TestRefreshFiltersSurvivesFilterRebuild(t *testing.T) {
	l, err := ledger.New(ledger.Config{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.RestoreRecords(revokedRecords(t, 2, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	dir := wire.NewDirectory()
	dir.Register(2, &wire.Loopback{L: l})
	v := NewValidator(Config{UseFilter: true}, nil)
	if err := v.RefreshFilters(dir); err != nil {
		t.Fatal(err)
	}
	if v.Epoch(2) != 1 {
		t.Fatalf("held epoch %d, want 1", v.Epoch(2))
	}
	// Outgrow the sizing floor so the next snapshot is forced to resize
	// (different m/k — a delta against the held base is impossible).
	if err := l.RestoreRecords(revokedRecords(t, 2, 1600)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.BuildSnapshot(); err != nil {
		t.Fatal(err)
	}
	_, want, err := l.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.RefreshFilters(dir); err != nil {
		t.Fatalf("refresh across a filter rebuild must not error: %v", err)
	}
	if v.Epoch(2) != 2 {
		t.Fatalf("held epoch %d, want 2", v.Epoch(2))
	}
	if heldFilterHash(v, 2) != want.Hash() {
		t.Fatal("held filter does not match the rebuilt snapshot")
	}
}

// TestRefreshFiltersDetectsBaseMismatch: a restarted ledger renumbers
// its epochs, so "epoch 2" on the replacement names different bits than
// the epoch 2 the proxy holds — with identical filter parameters
// (guaranteed here by the sizing floor). A raw delta would apply
// cleanly to the wrong base and silently corrupt the filter, turning
// revoked photos into false negatives. The sync protocol's base hash
// must detect the mismatch and resolve with a full snapshot.
func TestRefreshFiltersDetectsBaseMismatch(t *testing.T) {
	orig, err := ledger.New(ledger.Config{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	if err := orig.RestoreRecords(revokedRecords(t, 2, 20)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := orig.BuildSnapshot(); err != nil {
			t.Fatal(err)
		}
		if err := orig.RestoreRecords(revokedRecords(t, 2, 5)); err != nil {
			t.Fatal(err)
		}
	}
	dir := wire.NewDirectory()
	dir.Register(2, &wire.Loopback{L: orig})
	v := NewValidator(Config{UseFilter: true}, nil)
	if err := v.RefreshFilters(dir); err != nil {
		t.Fatal(err)
	}
	if v.Epoch(2) != 2 {
		t.Fatalf("held epoch %d, want 2", v.Epoch(2))
	}

	// "Restart": a fresh ledger under the same ID with a different
	// revoked population, built out to epoch 3. Same m/k as the held
	// base, epoch numbers overlap — only the base hash tells them apart.
	replacement, err := ledger.New(ledger.Config{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer replacement.Close()
	reps := revokedRecords(t, 2, 30)
	if err := replacement.RestoreRecords(reps[:10]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := replacement.BuildSnapshot(); err != nil {
			t.Fatal(err)
		}
		if err := replacement.RestoreRecords(reps[10+i*5 : 15+i*5]); err != nil {
			t.Fatal(err)
		}
	}
	_, want, err := replacement.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	dir.Register(2, &wire.Loopback{L: replacement})

	if err := v.RefreshFilters(dir); err != nil {
		t.Fatalf("refresh across a ledger restart must not error: %v", err)
	}
	if v.Epoch(2) != 3 {
		t.Fatalf("held epoch %d, want 3", v.Epoch(2))
	}
	if heldFilterHash(v, 2) != want.Hash() {
		t.Fatal("held filter corrupted: does not match the replacement ledger's snapshot")
	}
	// Every currently revoked claim must hit the refreshed filter — the
	// "definitely not revoked" guarantee the corruption would break.
	set := v.fset.Load().filters[ids.LedgerID(2)].f
	for i := 10; i < 20; i++ {
		if !set.Test(ledger.FilterKey(reps[i].ID)) {
			t.Fatalf("revoked claim %d missing from refreshed filter", i)
		}
	}
}

// BenchmarkServingValidate measures the proxy per-id hot path on a
// cache-hitting workload (the common case once a page is warm).
func BenchmarkServingValidate(b *testing.B) {
	v, population := benchValidator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Validate(population[i%len(population)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingValidateBatch measures the batched proxy path at the
// browser page size.
func BenchmarkServingValidateBatch(b *testing.B) {
	v, population := benchValidator(b)
	page := make([]ids.PhotoID, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range page {
			page[j] = population[(i*len(page)+j)%len(population)]
		}
		if _, err := v.ValidateBatch(page); err != nil {
			b.Fatal(err)
		}
	}
}

func benchValidator(b *testing.B) (*Validator, []ids.PhotoID) {
	b.Helper()
	states := make(map[ids.PhotoID]ledger.State)
	population := make([]ids.PhotoID, 512)
	for i := range population {
		id, err := ids.New(1)
		if err != nil {
			b.Fatal(err)
		}
		population[i] = id
		states[id] = ledger.StateActive
	}
	query := func(id ids.PhotoID) (*ledger.StatusProof, error) {
		return &ledger.StatusProof{ID: id, State: states[id], IssuedAt: time.Now()}, nil
	}
	v := NewValidator(Config{CacheCapacity: 1024, CacheTTL: time.Hour}, query)
	v.SetBatchQuery(func(_ ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
		out := make([]*ledger.StatusProof, len(batch))
		for i, id := range batch {
			out[i], _ = query(id)
		}
		return out, nil
	})
	return v, population
}
