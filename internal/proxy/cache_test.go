package proxy

import (
	"container/list"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"irs/internal/bloom"
	"irs/internal/ids"
	"irs/internal/ledger"
)

// refCache is the proof cache as it was before the arena: a
// container/list LRU of pointers per stripe, kept verbatim as the
// oracle the index-linked one is driven against (the refEmbed /
// LookupLinear tradition: the code a kernel replaced stays as its
// reference).
type refCache struct {
	stripes []refStripe
	mask    uint64
}

type refStripe struct {
	capacity int
	ttl      time.Duration
	stale    time.Duration
	now      func() time.Time
	entries  map[ids.PhotoID]*list.Element
	order    *list.List // front = most recently used
}

type refEntry struct {
	id      ids.PhotoID
	proof   *ledger.StatusProof
	expires time.Time
}

func (e *refEntry) fresh(now time.Time) bool { return !now.After(e.expires) }

func (e *refEntry) staleServable(now time.Time, stale time.Duration) bool {
	return !now.After(e.expires.Add(stale))
}

func newRefCache(capacity int, ttl, stale time.Duration, now func() time.Time, stripes int) *refCache {
	n := normalizeStripes(stripes)
	for n > 1 && capacity/n < minStripeCap {
		n /= 2
	}
	c := &refCache{stripes: make([]refStripe, n), mask: uint64(n - 1)}
	per := 0
	if capacity > 0 {
		per = (capacity + n - 1) / n
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.capacity = per
		s.ttl = ttl
		s.stale = stale
		s.now = now
		s.entries = make(map[ids.PhotoID]*list.Element)
		s.order = list.New()
	}
	return c
}

func (c *refCache) stripe(id ids.PhotoID) *refStripe {
	return &c.stripes[id.Hash64()&c.mask]
}

func (c *refCache) get(id ids.PhotoID) *ledger.StatusProof {
	s := c.stripe(id)
	el, ok := s.entries[id]
	if !ok {
		return nil
	}
	e := el.Value.(*refEntry)
	if now := s.now(); !e.fresh(now) {
		if s.stale <= 0 || !e.staleServable(now, s.stale) {
			s.order.Remove(el)
			delete(s.entries, id)
		}
		return nil
	}
	s.order.MoveToFront(el)
	return e.proof
}

func (c *refCache) getStale(id ids.PhotoID) *ledger.StatusProof {
	s := c.stripe(id)
	if s.stale <= 0 {
		return nil
	}
	el, ok := s.entries[id]
	if !ok {
		return nil
	}
	e := el.Value.(*refEntry)
	if !e.staleServable(s.now(), s.stale) {
		s.order.Remove(el)
		delete(s.entries, id)
		return nil
	}
	s.order.MoveToFront(el)
	return e.proof
}

func (c *refCache) put(id ids.PhotoID, proof *ledger.StatusProof) {
	s := c.stripe(id)
	if s.capacity <= 0 {
		return
	}
	if el, ok := s.entries[id]; ok {
		e := el.Value.(*refEntry)
		e.proof = proof
		e.expires = s.now().Add(s.ttl)
		s.order.MoveToFront(el)
		return
	}
	for len(s.entries) >= s.capacity {
		back := s.order.Back()
		if back == nil {
			break
		}
		s.order.Remove(back)
		delete(s.entries, back.Value.(*refEntry).id)
	}
	el := s.order.PushFront(&refEntry{id: id, proof: proof, expires: s.now().Add(s.ttl)})
	s.entries[id] = el
}

func (c *refCache) invalidate(id ids.PhotoID) {
	s := c.stripe(id)
	if el, ok := s.entries[id]; ok {
		s.order.Remove(el)
		delete(s.entries, id)
	}
}

func (c *refCache) len() int {
	total := 0
	for i := range c.stripes {
		total += len(c.stripes[i].entries)
	}
	return total
}

// lruOrder lists each stripe's identifiers, most recently used first,
// and checks the arena's own invariants on the way: every slot but the
// sentinel is on the ring or the free list, the index names exactly the
// ring's, and the arena has not outgrown the stripe's capacity.
func (c *cache) lruOrder(t *testing.T) [][]ids.PhotoID {
	t.Helper()
	out := make([][]ids.PhotoID, len(c.stripes))
	for si := range c.stripes {
		s := &c.stripes[si]
		prev := int32(0)
		for i := s.slots[0].next; i != 0; i = s.slots[i].next {
			e := &s.slots[i]
			if e.prev != prev || s.index[e.id] != i {
				t.Fatalf("stripe %d slot %d: prev %d (want %d), index says %d", si, i, e.prev, prev, s.index[e.id])
			}
			out[si] = append(out[si], e.id)
			prev = i
		}
		free := 0
		for i := s.free; i != 0; i = s.slots[i].next {
			free++
		}
		if s.slots[0].prev != prev || len(out[si]) != len(s.index) || 1+len(out[si])+free != len(s.slots) || cap(s.slots) > s.capacity+1 {
			t.Fatalf("stripe %d: tail %d (want %d), %d listed, %d indexed, %d free, %d slots of %d, capacity %d",
				si, s.slots[0].prev, prev, len(out[si]), len(s.index), free, len(s.slots), cap(s.slots), s.capacity)
		}
	}
	return out
}

func (c *refCache) lruOrder() [][]ids.PhotoID {
	out := make([][]ids.PhotoID, len(c.stripes))
	for si := range c.stripes {
		for el := c.stripes[si].order.Front(); el != nil; el = el.Next() {
			out[si] = append(out[si], el.Value.(*refEntry).id)
		}
	}
	return out
}

// TestCacheMatchesListReference drives the arena LRU and the retained
// container/list one through the same seeded sequence of get, getStale,
// put, invalidate and clock steps: the same hits with the same proofs,
// the same len(), and — which pins every eviction and every drop of an
// expired entry — the same identifiers in the same LRU order in every
// stripe, after every step. Proofs are issued and the clock moves in
// whole ticks, so now == expires and now == expires+stale, the two
// inclusive boundaries, come up constantly.
func TestCacheMatchesListReference(t *testing.T) {
	const (
		tick  = time.Second
		ttl   = 8 * tick
		steps = 20000
	)
	for _, tc := range []struct {
		name                        string
		capacity, stripes, universe int
		stale                       time.Duration
	}{
		{"one stripe", 16, 1, 40, 4 * tick},
		{"no stale window", 16, 1, 40, 0},
		{"four stripes", 256, 4, 700, 4 * tick},
		{"capacity one", 1, 1, 4, 4 * tick},
		{"disabled", 0, 1, 4, 4 * tick},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
			clock := func() time.Time { return now }
			got := newCache(tc.capacity, ttl, tc.stale, clock, tc.stripes)
			want := newRefCache(tc.capacity, ttl, tc.stale, clock, tc.stripes)
			if len(got.stripes) != len(want.stripes) {
				t.Fatalf("%d stripes, reference has %d", len(got.stripes), len(want.stripes))
			}
			universe := make([]ids.PhotoID, tc.universe)
			for i := range universe {
				universe[i] = mustNewID(t, 1)
			}
			var hits, staleHits, full int
			for step := 0; step < steps; step++ {
				id := universe[rng.Intn(len(universe))]
				op := "put"
				switch r := rng.Intn(20); {
				case r < 8:
					p := &ledger.StatusProof{ID: id, State: ledger.State(rng.Intn(4)), IssuedAt: now}
					rng.Read(p.Sig[:])
					got.put(id, p)
					want.put(id, p)
				case r < 13:
					op = "get"
					var out ledger.StatusProof
					ok, ref := got.get(id, &out), want.get(id)
					if ok != (ref != nil) || ok && out != *ref {
						t.Fatalf("step %d get: hit %v %+v, reference %+v", step, ok, out, ref)
					}
					if ok {
						hits++
					}
				case r < 16:
					op = "getStale"
					var out ledger.StatusProof
					ok, ref := got.getStale(id, &out), want.getStale(id)
					if ok != (ref != nil) || ok && out != *ref {
						t.Fatalf("step %d getStale: hit %v %+v, reference %+v", step, ok, out, ref)
					}
					if ok {
						staleHits++
					}
				case r < 18:
					op = "invalidate"
					got.invalidate(id)
					want.invalidate(id)
				default:
					op = "tick"
					now = now.Add(time.Duration(1+rng.Intn(3)) * tick)
				}
				if got.len() != want.len() {
					t.Fatalf("step %d (%s): len %d, reference %d", step, op, got.len(), want.len())
				}
				g, w := got.lruOrder(t), want.lruOrder()
				for si := range g {
					if !slices.Equal(g[si], w[si]) {
						t.Fatalf("step %d (%s): stripe %d LRU order\n%v\nreference\n%v", step, op, si, g[si], w[si])
					}
				}
				if got.len() == tc.capacity {
					full++
				}
			}
			// The sequence really visited what it is meant to compare.
			if tc.capacity > 0 && (hits == 0 || full == 0 || (tc.stale > 0) != (staleHits > 0)) {
				t.Fatalf("sequence too thin: %d hits, %d stale hits, %d steps at capacity", hits, staleHits, full)
			}
		})
	}
}

// TestCacheArenaGrowsOnDemandAndRecycles: the arena holds what has been
// put, not what the capacity would allow (CacheCapacity defaults are
// far above a proxy's working set), stops at capacity, and from then on
// a put reuses the evicted slot: zero allocations on a full stripe.
func TestCacheArenaGrowsOnDemandAndRecycles(t *testing.T) {
	const capacity = 1 << 16
	c := newCache(capacity, time.Hour, 0, time.Now, 1)
	s := &c.stripes[0]
	if cap(s.slots) != 1 {
		t.Fatalf("an empty cache of capacity %d holds an arena of %d slots", capacity, cap(s.slots))
	}
	proof := &ledger.StatusProof{State: ledger.StateActive}
	for i := 0; i < 100; i++ {
		c.put(mustNewID(t, 1), proof)
	}
	if cap(s.slots) > 256 {
		t.Errorf("100 entries grew the arena to %d slots", cap(s.slots))
	}

	small := newCache(64, time.Hour, 0, time.Now, 1)
	page := make([]ids.PhotoID, 4*64)
	for i := range page {
		page[i] = mustNewID(t, 1)
		small.put(page[i], proof)
	}
	if s := &small.stripes[0]; small.len() != 64 || len(s.slots) != 65 || cap(s.slots) != 65 {
		t.Fatalf("full stripe of 64: len %d, %d slots, arena cap %d", small.len(), len(s.slots), cap(s.slots))
	}
	if raceEnabled {
		return // allocation counts are asserted without the race detector
	}
	next := 0
	allocs := testing.AllocsPerRun(1000, func() {
		small.put(page[next%len(page)], proof) // always a miss: the page is four stripes long
		next++
	})
	if allocs != 0 {
		t.Errorf("put on a full stripe: %.2f allocations, want 0", allocs)
	}
}

// TestProofOwnership: a proof handed out by cache.get, Validate or
// ValidateBatch is the caller's to scribble on, and the array an
// upstream answer arrived in is the upstream's: neither reaches the
// cached copy.
func TestProofOwnership(t *testing.T) {
	page := make([]ids.PhotoID, 8)
	upstream := make([]ledger.StatusProof, len(page)) // the array every StatusBatch answer points into
	byID := map[ids.PhotoID]*ledger.StatusProof{}
	for i := range page {
		page[i] = mustNewID(t, 1)
		upstream[i] = ledger.StatusProof{ID: page[i], State: ledger.StateRevoked, IssuedAt: time.Unix(1700000000, 0).UTC()}
		upstream[i].Sig[0] = byte(i + 1)
		byID[page[i]] = &upstream[i]
	}
	want := append([]ledger.StatusProof(nil), upstream...)
	queries := 0
	v := NewValidator(Config{CacheCapacity: 64, CacheTTL: time.Hour}, func(_ ids.LedgerID, sub []ids.PhotoID) ([]*ledger.StatusProof, error) {
		queries++
		out := make([]*ledger.StatusProof, len(sub))
		for i, id := range sub {
			out[i] = byID[id]
		}
		return out, nil
	})
	scribble := func(p *ledger.StatusProof) {
		p.ID, p.State, p.IssuedAt = ids.PhotoID{}, ledger.StateActive, time.Time{}
		for i := range p.Sig {
			p.Sig[i] ^= 0xff
		}
	}
	// check compares answers with the proofs first issued, then ruins
	// the answers: the next round must not see the damage.
	check := func(round string, res []Result, want []ledger.StatusProof, source Source) {
		t.Helper()
		for i, r := range res {
			if r.Source != source || r.Proof == nil || *r.Proof != want[i] {
				t.Fatalf("%s: result %d is %v %+v, want %v %+v", round, i, r.Source, r.Proof, source, want[i])
			}
			scribble(r.Proof)
		}
	}
	res, err := v.ValidateBatch(page)
	if err != nil {
		t.Fatal(err)
	}
	// The first round's proofs sit in the upstream's array, so scribbling
	// on them is also the upstream reusing its array.
	check("ledger round", res, want, SourceLedger)
	for round := 0; round < 2; round++ {
		if res, err = v.ValidateBatch(page); err != nil {
			t.Fatal(err)
		}
		check("cached round", res, want, SourceCache)
	}
	for i, id := range page {
		for round := 0; round < 2; round++ {
			r, err := v.Validate(id)
			if err != nil {
				t.Fatal(err)
			}
			check("Validate", []Result{r}, want[i:], SourceCache)
			var out ledger.StatusProof
			if !v.cache.get(id, &out) || out != want[i] {
				t.Fatalf("cache.get(%v) = %+v, want %+v", id, out, want[i])
			}
			scribble(&out)
		}
	}
	if queries != 1 {
		t.Errorf("%d upstream calls, want the first round's one", queries)
	}
}

// resolveMix builds the pageview_resolve page: 48 filter-positive
// identifiers of one ledger, hits of them held by the cache, the rest
// answered by a BatchQueryFunc that allocates nothing itself.
func resolveMix(t testing.TB, cfg Config, hits int) (v *Validator, page, queried []ids.PhotoID, answers map[ids.PhotoID]*ledger.StatusProof) {
	t.Helper()
	filter, err := bloom.NewWithEstimate(1024, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	page = make([]ids.PhotoID, 48)
	slab := make([]ledger.StatusProof, len(page))
	answers = make(map[ids.PhotoID]*ledger.StatusProof, len(page))
	for i := range page {
		page[i] = mustNewID(t, 1)
		filter.Add(ledger.FilterKey(page[i]))
		slab[i] = ledger.StatusProof{ID: page[i], State: ledger.StateActive, IssuedAt: time.Unix(1700000000, 0).UTC()}
		answers[page[i]] = &slab[i]
	}
	cfg.UseFilter = true
	out := make([]*ledger.StatusProof, len(page))
	v = NewValidator(cfg, func(_ ids.LedgerID, sub []ids.PhotoID) ([]*ledger.StatusProof, error) {
		for i, id := range sub {
			out[i] = answers[id]
		}
		return out[:len(sub)], nil
	})
	v.SetFilter(1, 1, filter)
	return v, page, page[hits:], answers
}

// TestValidateBatchAllocationBudget: the pageview_resolve page — 48
// filter-positive identifiers, 11 answered by the cache and 37 by one
// upstream batch — costs the validator a dozen allocations: the results,
// one chunk of cached-proof copies, and the must-query bookkeeping as a
// few flat arrays, not a slice per unique identifier.
func TestValidateBatchAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are asserted without the race detector")
	}
	v, page, queried, _ := resolveMix(t, Config{CacheCapacity: 1024, CacheTTL: time.Hour}, 11)
	if _, err := v.ValidateBatch(page); err != nil { // fills the cache
		t.Fatal(err)
	}
	v.ResetStats()
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		for _, id := range queried {
			v.Invalidate(id)
		}
		if _, err := v.ValidateBatch(page); err != nil {
			t.Fatal(err)
		}
	})
	// AllocsPerRun makes one warm-up call beside the counted ones.
	if st := v.Stats(); st.CacheHits != 11*(runs+1) || st.LedgerQueries != 37*(runs+1) || st.Total != 48*(runs+1) {
		t.Fatalf("page mix per page: %+v; want 11 cache hits and 37 ledger queries of 48", st)
	}
	if allocs > 12 {
		t.Errorf("ValidateBatch on the resolve mix: %.0f allocations, budget 12", allocs)
	}
	t.Logf("ValidateBatch on the resolve mix: %.0f allocations", allocs)
}

// TestUndefinedStateIsNotCached: an in-range proof for the right
// identifier whose State names no state fails that identifier alone —
// an upstream error under the configured DegradePolicy — while the rest
// of the page is answered and cached as always, and nothing is cached
// for it: the next page asks the ledger again instead of forwarding the
// poison for a TTL.
func TestUndefinedStateIsNotCached(t *testing.T) {
	clock, advance := fakeClock(time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC))
	for _, mode := range []DegradeMode{DegradeFailClosed, DegradeFailOpenFresh} {
		t.Run(mode.String(), func(t *testing.T) {
			v, page, _, answers := resolveMix(t, Config{
				CacheCapacity: 1024, CacheTTL: time.Minute, Clock: clock,
				Degrade: DegradePolicy{Mode: mode},
			}, 0)
			bad := page[17]
			if mode == DegradeFailOpenFresh {
				// An honest answer from before, expired by now: the stale
				// fallback an upstream error degrades to.
				if _, err := v.ValidateBatch([]ids.PhotoID{bad}); err != nil {
					t.Fatal(err)
				}
				advance(2 * time.Minute)
				v.ResetStats()
			}
			answers[bad].State = 9
			res, err := v.ValidateBatch(page)
			st := v.Stats()
			switch mode {
			case DegradeFailClosed:
				if err == nil || !strings.Contains(err.Error(), "undefined state") {
					t.Fatalf("page with an undefined state: err = %v", err)
				}
				if st.Unavailable != 1 || st.LedgerQueries != 47 {
					t.Errorf("stats %+v; want 1 unavailable, 47 ledger answers", st)
				}
			case DegradeFailOpenFresh:
				if err != nil {
					t.Fatalf("page with a stale fallback: %v", err)
				}
				for i, r := range res {
					wantSource := SourceLedger
					if page[i] == bad {
						wantSource = SourceStale
					}
					if r.Source != wantSource || r.State != ledger.StateActive {
						t.Errorf("result %d: %v/%v, want %v/active", i, r.Source, r.State, wantSource)
					}
				}
				if st.StaleServed != 1 || st.LedgerQueries != 47 {
					t.Errorf("stats %+v; want 1 stale, 47 ledger answers", st)
				}
			}
			// The other 47 were cached; the poisoned one was not (the
			// fail-open arm still holds only its old, expired proof).
			var out ledger.StatusProof
			for _, id := range page {
				if got := v.cache.get(id, &out); got != (id != bad) {
					t.Errorf("cache holds a fresh proof for %v: %v", id, got)
				}
			}
			// Once the ledger answers properly the id is asked again.
			answers[bad].State = ledger.StateRevoked
			v.ResetStats()
			if res, err = v.ValidateBatch(page); err != nil {
				t.Fatal(err)
			}
			if st := v.Stats(); st.LedgerQueries != 1 || st.CacheHits != 47 || res[17].State != ledger.StateRevoked {
				t.Errorf("after recovery: %+v, state %v; want 1 ledger answer (revoked), 47 cache hits", st, res[17].State)
			}
		})
	}
}

// TestCacheHammer runs ValidateBatch, Validate, Invalidate and SetFilter
// concurrently against one 64-entry stripe, where every put past the
// first 64 overwrites a slot some other goroutine's get may be copying
// from. Under -race this is the data-race check for the by-value arena;
// in any build every answer must be the asked identifier's own proof.
func TestCacheHammer(t *testing.T) {
	const universe = 256
	all := make([]ids.PhotoID, universe)
	state := make(map[ids.PhotoID]ledger.State, universe)
	filter, err := bloom.NewWithEstimate(1024, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	for i := range all {
		all[i] = mustNewID(t, 1)
		state[all[i]] = ledger.State(1 + i%3)
		if i%4 != 0 { // a quarter are filter answers
			filter.Add(ledger.FilterKey(all[i]))
		}
	}
	proofFor := func(id ids.PhotoID) *ledger.StatusProof {
		p := &ledger.StatusProof{ID: id, State: state[id], IssuedAt: time.Unix(1700000000, 0).UTC()}
		copy(p.Sig[:], id.Rec[:])
		return p
	}
	v := NewValidator(Config{UseFilter: true, CacheCapacity: 64, CacheTTL: time.Hour}, func(_ ids.LedgerID, sub []ids.PhotoID) ([]*ledger.StatusProof, error) {
		out := ledger.NewProofBatch(len(sub))
		for i, id := range sub {
			*out[i] = *proofFor(id)
		}
		return out, nil
	})
	v.SetFilter(1, 1, filter)
	if len(v.cache.stripes) != 1 {
		t.Fatalf("a 64-entry cache has %d stripes, want 1", len(v.cache.stripes))
	}
	checkResult := func(id ids.PhotoID, r Result) {
		if r.Source == SourceFilter {
			if filter.Test(ledger.FilterKey(id)) {
				t.Errorf("%v: filter answer for an id the filter holds", id)
			}
			return
		}
		if want := proofFor(id); r.Proof == nil || *r.Proof != *want || r.State != want.State {
			t.Errorf("%v: %v answer %v %+v, want %+v", id, r.Source, r.State, r.Proof, want)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			page := make([]ids.PhotoID, 48)
			for round := 0; round < 200; round++ {
				switch w % 4 {
				case 0, 1:
					for i := range page {
						page[i] = all[rng.Intn(universe)]
					}
					res, err := v.ValidateBatch(page)
					if err != nil {
						t.Error(err)
						return
					}
					for i, r := range res {
						checkResult(page[i], r)
					}
				case 2:
					id := all[rng.Intn(universe)]
					r, err := v.Validate(id)
					if err != nil {
						t.Error(err)
						return
					}
					checkResult(id, r)
					v.Invalidate(all[rng.Intn(universe)])
				case 3:
					v.SetFilter(1, uint64(round), filter)
					v.Invalidate(all[rng.Intn(universe)])
				}
			}
		}(w)
	}
	wg.Wait()
	v.cache.lruOrder(t) // the arena's invariants survived
	if n := v.cache.len(); n > 64 {
		t.Errorf("cache holds %d entries, capacity 64", n)
	}
}
