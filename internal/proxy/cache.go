package proxy

import (
	"sync"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
)

// cache is a TTL + LRU cache of ledger status proofs (§4.4: proxies
// "caching lookups (which would also further reduce viewing latency)").
// Entries expire after the TTL so that revocations propagate within a
// bounded window — the paper explicitly accepts non-instantaneous
// revocation (Nongoal #4); the TTL is that window.
//
// The cache is lock-striped by identifier hash so concurrent serving
// workers touching different photos don't serialize on one mutex. Each
// stripe runs its own LRU over an equal share of the capacity, which
// approximates global LRU (the standard striped-cache trade: eviction
// pressure is per-stripe, and the hash spreads hot entries uniformly).
// Small caches collapse to a single stripe — below minStripeCap entries
// per stripe the approximation gets visibly lumpy and exact global LRU
// is what callers (and the pre-stripe tests) expect.
//
// The cache owns what it holds: put copies the proof into the stripe's
// arena and get copies it out under the stripe lock, so an entry never
// pins the batch array its proof arrived in and no caller holds a
// pointer into a slot a later put may overwrite.
type cache struct {
	stripes []cacheStripe
	mask    uint64
}

// minStripeCap is the smallest per-stripe capacity worth striping for.
const minStripeCap = 64

type cacheStripe struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration
	// stale extends an expired entry's usefulness for the degradation
	// path: within [expires, expires+stale] the entry answers getStale
	// (never get). Zero means expired entries are dropped on sight, the
	// pre-degradation behavior.
	stale time.Duration
	now   func() time.Time
	// slots is the entry arena and index maps an identifier to its slot.
	// Slot 0 is the sentinel of the LRU ring (its next is the most, its
	// prev the least recently used); vacated slots hang off free through
	// next, 0 ending the list. The arena grows on demand up to capacity —
	// configured capacities are far above what most proxies ever hold —
	// and a vacated slot is reused before it grows again.
	slots []cacheEntry
	index map[ids.PhotoID]int32
	free  int32
}

type cacheEntry struct {
	id         ids.PhotoID
	proof      ledger.StatusProof
	expires    time.Time
	prev, next int32
}

// Window semantics, shared by get and getStale so the boundary can't
// drift between them:
//
//	now ≤ expires              fresh (get serves; getStale also serves)
//	expires < now ≤ expires+stale   stale-only (getStale serves)
//	now > expires+stale        gone (dropped on next touch)
//
// Both boundaries are inclusive: a proof at exactly `expires` is still
// fresh, and at exactly `expires+stale` is still stale-servable. An
// entry is therefore servable by *some* path until strictly after
// expires+stale, and there is no instant at which it is neither
// fresh-expired nor stale-servable.

// fresh reports whether the entry may be served on the normal path.
func (e *cacheEntry) fresh(now time.Time) bool {
	return !now.After(e.expires)
}

// staleServable reports whether the entry may be served on the
// degraded path (fresh entries qualify too).
func (e *cacheEntry) staleServable(now time.Time, stale time.Duration) bool {
	return !now.After(e.expires.Add(stale))
}

func newCache(capacity int, ttl, stale time.Duration, now func() time.Time, stripes int) *cache {
	n := normalizeStripes(stripes)
	for n > 1 && capacity/n < minStripeCap {
		n /= 2
	}
	c := &cache{stripes: make([]cacheStripe, n), mask: uint64(n - 1)}
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
		s.index = make(map[ids.PhotoID]int32)
		s.slots = make([]cacheEntry, 1)
	}
	return c
}

func (c *cache) stripe(id ids.PhotoID) *cacheStripe {
	return &c.stripes[id.Hash64()&c.mask]
}

// unlink takes slot i off the LRU ring.
func (s *cacheStripe) unlink(i int32) {
	e := &s.slots[i]
	s.slots[e.prev].next, s.slots[e.next].prev = e.next, e.prev
}

// pushFront makes slot i, off the ring, the most recently used.
func (s *cacheStripe) pushFront(i int32) {
	head := s.slots[0].next
	s.slots[i].prev, s.slots[i].next = 0, head
	s.slots[head].prev, s.slots[0].next = i, i
}

// drop removes live slot i and leaves it on the free list.
func (s *cacheStripe) drop(i int32) {
	s.unlink(i)
	delete(s.index, s.slots[i].id)
	s.slots[i].next, s.free = s.free, i
}

// vacant returns a slot for a new entry: a vacated one, else the next
// of the arena while it is under capacity, else the least recently used
// entry's, evicted. The stripe's capacity is at least 1.
func (s *cacheStripe) vacant() int32 {
	if n := len(s.slots); s.free == 0 && n <= s.capacity {
		if n == cap(s.slots) {
			s.slots = append(make([]cacheEntry, 0, min(2*n, s.capacity+1)), s.slots...)
		}
		s.slots = s.slots[:n+1]
		return int32(n)
	}
	if s.free == 0 {
		s.drop(s.slots[0].prev)
	}
	i := s.free
	s.free = s.slots[i].next
	return i
}

// get copies a live cached proof into dst and reports whether there was
// one. Expired entries inside the stale window are kept (for getStale)
// but never returned here.
func (c *cache) get(id ids.PhotoID, dst *ledger.StatusProof) bool {
	s := c.stripe(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[id]
	if !ok {
		return false
	}
	e := &s.slots[i]
	if now := s.now(); !e.fresh(now) {
		if s.stale <= 0 || !e.staleServable(now, s.stale) {
			s.drop(i)
		}
		return false
	}
	s.unlink(i)
	s.pushFront(i)
	*dst = e.proof
	return true
}

// getStale copies an expired-but-within-stale-window proof into dst and
// reports whether there was one. Fresh entries also qualify (a degraded
// path may race a refresh). The LRU position is refreshed so entries
// being leaned on during an outage survive eviction pressure.
func (c *cache) getStale(id ids.PhotoID, dst *ledger.StatusProof) bool {
	s := c.stripe(id)
	if s.stale <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[id]
	if !ok {
		return false
	}
	e := &s.slots[i]
	if !e.staleServable(s.now(), s.stale) {
		s.drop(i)
		return false
	}
	s.unlink(i)
	s.pushFront(i)
	*dst = e.proof
	return true
}

// put stores a copy of proof, evicting the stripe's least recently used
// entry when full.
func (c *cache) put(id ids.PhotoID, proof *ledger.StatusProof) {
	s := c.stripe(id)
	if s.capacity <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[id]
	if ok {
		s.unlink(i)
	} else {
		i = s.vacant()
		s.index[id] = i
	}
	s.pushFront(i)
	e := &s.slots[i]
	e.id, e.proof, e.expires = id, *proof, s.now().Add(s.ttl)
}

// invalidate drops an entry; used when a client reports a revocation it
// learned out of band.
func (c *cache) invalidate(id ids.PhotoID) {
	s := c.stripe(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[id]; ok {
		s.drop(i)
	}
}

// len returns the live entry count (including not-yet-collected expired
// entries).
func (c *cache) len() int {
	total := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		total += len(s.index)
		s.mu.Unlock()
	}
	return total
}
