// Package proxy implements the IRS proxy of the bootstrap design
// (paper §4): a trusted intermediary that browsers query instead of
// ledgers, providing
//
//   - viewer privacy (§4.2): the ledger sees the proxy's aggregate
//     stream, never an individual user's browsing — the same structure
//     as Mozilla's TRR, Oblivious DNS, and Apple Private Relay;
//   - latency (§4.3): a validation cache close to the user;
//   - ledger-load reduction (§4.4): per-ledger Bloom filters of revoked
//     photos, refreshed by delta, answer "definitely not revoked"
//     locally so only filter hits reach a ledger.
//
// The Validator core is transport-agnostic (the E2 experiment drives it
// with an in-process query function and counts ledger queries); Server
// in server.go exposes it over HTTP for the runnable binaries.
//
// Serving-path concurrency: the proof cache and the singleflight table
// are lock-striped by identifier hash, and the per-ledger filter
// windows sit in a copy-on-write map behind an atomic pointer, each
// publishing its newest filter through one more, so the read path
// (filter probe → cache probe) takes no shared lock and at most one
// stripe lock. Config.Stripes = 1 restores the pre-stripe single-lock
// layout, one global LRU, which experiment E2 models.
package proxy

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"irs/internal/bloom"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/parallel"
	"irs/internal/wire"
)

// Source says how a validation was answered; experiments aggregate by
// it.
type Source int

const (
	// SourceFilter means the aggregated revocation filter missed: the
	// photo is definitely not revoked and no ledger was contacted.
	SourceFilter Source = iota
	// SourceCache means a live cached ledger proof answered.
	SourceCache
	// SourceLedger means the ledger was queried.
	SourceLedger
	// SourceStale means the ledger was unreachable and an expired
	// cached proof inside the DegradePolicy's staleness bound answered
	// (FailOpenFresh only).
	SourceStale
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceFilter:
		return "filter"
	case SourceCache:
		return "cache"
	case SourceLedger:
		return "ledger"
	case SourceStale:
		return "stale"
	default:
		return "unknown"
	}
}

// Result is a validation answer.
type Result struct {
	State  ledger.State
	Source Source
	// Proof is the ledger's signed status; nil for filter-miss answers,
	// which carry no ledger attestation (the filter itself is the
	// evidence, and the paper's bootstrap trust model accepts the proxy's
	// word — browsers that want proof can force a query).
	Proof *ledger.StatusProof
}

// BatchQueryFunc resolves many statuses against one ledger in a single
// upstream round trip (wire.Service.StatusBatch): the validator's one
// upstream contract. Proofs come back in request order, one per
// identifier. batch is the validator's scratch, valid only during the
// call. The HTTP server resolves through a wire.Directory;
// simulations count invocations.
type BatchQueryFunc func(lid ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error)

// DegradeMode selects what the proxy answers when a ledger cannot be
// reached (transport failure, retries exhausted, or breaker open).
type DegradeMode int

const (
	// DegradeFailClosed propagates the upstream error: an unreachable
	// ledger blanks its photos. The zero value, and the pre-degradation
	// behavior.
	DegradeFailClosed DegradeMode = iota
	// DegradeFailOpenFresh serves the most recent expired cached proof,
	// provided it is within staleTTL of expiry; photos with no
	// recent-enough proof still fail closed. This is the paper's
	// availability stance (§4.4): revocation propagation is already
	// bounded by a TTL, so an outage stretches that bound rather than
	// taking content offline.
	DegradeFailOpenFresh
)

// String implements fmt.Stringer.
func (m DegradeMode) String() string {
	switch m {
	case DegradeFailClosed:
		return "fail-closed"
	case DegradeFailOpenFresh:
		return "fail-open-fresh"
	default:
		return fmt.Sprintf("DegradeMode(%d)", int(m))
	}
}

// staleTTL is how long past expiry a cached proof may still be served
// under DegradeFailOpenFresh. The revocation-propagation bound during
// an outage is CacheTTL + staleTTL.
const staleTTL = time.Hour

// DegradePolicy bounds how far the proxy degrades during an outage.
type DegradePolicy struct {
	Mode DegradeMode
}

// Config parameterizes a Validator.
type Config struct {
	// CacheCapacity is the proof cache size in entries; 0 disables
	// caching.
	CacheCapacity int
	// CacheTTL bounds revocation propagation delay; zero means 5
	// minutes.
	CacheTTL time.Duration
	// UseFilter enables the Bloom-filter fast path. E2 turns it off for
	// the baseline arm.
	UseFilter bool
	// Stripes is the lock-stripe count for the proof cache and the
	// singleflight table; 0 means 16, other values round up to a power
	// of two. 1 reproduces the pre-stripe single-lock behavior: one
	// global LRU instead of an LRU per stripe (E2 pins it).
	Stripes int
	// Degrade is the outage answer policy; the zero value fails closed.
	Degrade DegradePolicy
	// Breaker configures the per-ledger circuit breakers; the zero
	// value disables them.
	Breaker BreakerConfig
	// Admission configures per-client fairness (token bucket per
	// client key with a shared overflow pool — see admission.go); the
	// zero value disables it. Admission gates requests before any
	// outcome accounting, so enabling it never changes a validation
	// decision, only whether a client's request is accepted at all.
	Admission AdmissionConfig
	// Clock supplies time; nil means time.Now.
	Clock func() time.Time
	// Obs is the metrics registry the validator's series are interned
	// in. nil keeps the counters in a private registry and disables
	// latency histograms, so the hot path costs exactly what the
	// pre-obs Stats struct did; set it to share series with the wire
	// server's /debug/metrics and to collect per-outcome latency.
	Obs *obs.Registry
	// Tracer, when non-nil, records per-request stage spans
	// (scan → upstream → finalize). nil disables tracing with
	// no hot-path branches beyond the nil-receiver checks.
	Tracer *obs.Tracer
}

// defaultStripes matches a modest serving proxy: enough stripes that
// 8–16 workers rarely collide, few enough that tiny caches still give
// each stripe a useful LRU share.
const defaultStripes = 16

// normalizeStripes maps a configured stripe count to the power of two
// actually used.
func normalizeStripes(n int) int {
	if n <= 0 {
		n = defaultStripes
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// filterSet is an immutable map from each ledger to its filter window:
// the validator is a filter holder like a ledger or a tier, installing,
// serving and pulling through bloom.Window. Readers load the map
// through an atomic pointer and probe without locking; a ledger's first
// install or pull publishes a copy that adds its window (ledgers come
// and go far less often than epochs). Until a window holds an epoch,
// its ledger's photos might be revoked.
type filterSet struct {
	windows map[ids.LedgerID]*bloom.Window
}

// Validator is the proxy core. Safe for concurrent use.
type Validator struct {
	cfg   Config
	query BatchQueryFunc
	cache *cache

	// fset is the current filter windows; setMu serializes adding one.
	fset  atomic.Pointer[filterSet]
	setMu sync.Mutex

	obsReg *obs.Registry
	tracer *obs.Tracer
	st     stats

	// sf stripes the singleflight table by identifier hash.
	sf     []sfStripe
	sfMask uint64

	// brMu guards the lazily created per-ledger circuit breakers.
	brMu     sync.Mutex
	breakers map[ids.LedgerID]*breaker

	// adm is the per-client admission-control state; nil when disabled.
	adm *admission

	// scratch is the free list of ValidateBatch's must-query scratch.
	scratch chan *pageScratch

	// refreshMu guards refreshing, the RefreshFilters call in progress
	// (nil when idle).
	refreshMu  sync.Mutex
	refreshing *inflight
}

type sfStripe struct {
	mu sync.Mutex
	m  map[ids.PhotoID]sfEntry
}

// sfEntry registers an identifier as being fetched: it is queryIDs[j]
// of the call that leads fl. box, made by the first call to wait on it,
// receives the leader's copy of the proof.
type sfEntry struct {
	fl  *inflight
	j   int32
	box *ledger.StatusProof
}

// inflight is one upstream call in progress that later callers wait on
// instead of repeating: one call's status fetch or a filter refresh.
// The results are set before done closes.
type inflight struct {
	done chan struct{}
	// A status fetch: the leading call's answers, by its unique index.
	answers []answer
	// A filter refresh.
	err error
}

// NewValidator creates a proxy core that resolves misses through query;
// nil leaves it answering from its filters and cache alone.
func NewValidator(cfg Config, query BatchQueryFunc) *Validator {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.CacheTTL == 0 {
		cfg.CacheTTL = 5 * time.Minute
	}
	stale := time.Duration(0)
	if cfg.Degrade.Mode == DegradeFailOpenFresh {
		stale = staleTTL
	}
	n := normalizeStripes(cfg.Stripes)
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	v := &Validator{
		cfg:      cfg,
		query:    query,
		cache:    newCache(cfg.CacheCapacity, cfg.CacheTTL, stale, cfg.Clock, cfg.Stripes),
		obsReg:   reg,
		tracer:   cfg.Tracer,
		st:       newStats(reg, cfg.Obs != nil, cfg.Clock),
		sf:       make([]sfStripe, n),
		sfMask:   uint64(n - 1),
		breakers: make(map[ids.LedgerID]*breaker),
		adm:      newAdmission(cfg.Admission, cfg.Clock, reg),
		scratch:  make(chan *pageScratch, freeScratch),
	}
	for i := range v.sf {
		v.sf[i].m = make(map[ids.PhotoID]sfEntry)
	}
	v.fset.Store(&filterSet{windows: make(map[ids.LedgerID]*bloom.Window)})
	return v
}

// window returns a ledger's filter window, publishing an empty one the
// first time.
func (v *Validator) window(lid ids.LedgerID) *bloom.Window {
	if w, ok := v.fset.Load().windows[lid]; ok {
		return w
	}
	v.setMu.Lock()
	defer v.setMu.Unlock()
	cur := v.fset.Load().windows
	if w, ok := cur[lid]; ok {
		return w
	}
	w := bloom.NewWindow(bloom.RelayHistory)
	next := maps.Clone(cur)
	next[lid] = w
	v.fset.Store(&filterSet{windows: next})
	return w
}

// SetFilter installs f as a ledger's filter epoch (bloom.Window.Install:
// held epochs at or past epoch are dropped first). Readers racing with
// the install see either the old or the new filter, never a mix.
func (v *Validator) SetFilter(lid ids.LedgerID, epoch uint64, f *bloom.Filter) {
	v.window(lid).Install(epoch, f)
}

// Pull advances a ledger's filter one sync round against src — the
// ledger, another validator's FilterSync, any upstream holder — with
// bloom.Window.Pull. It reports whether an epoch was installed and the
// payload bytes moved.
func (v *Validator) Pull(lid ids.LedgerID, src bloom.SyncFunc) (changed bool, bytes int, err error) {
	return v.window(lid).Pull(src)
}

// FilterSync serves a ledger's held epochs to a downstream holder with
// the serve rule the ledger itself uses (bloom.Window.Sync), so
// validators chain the way tiers do. bloom.ErrNoEpoch until the ledger's
// first epoch.
func (v *Validator) FilterSync(lid ids.LedgerID, from uint64, baseHash []byte) ([]byte, uint64, error) {
	w, ok := v.fset.Load().windows[lid]
	if !ok {
		return nil, 0, bloom.ErrNoEpoch
	}
	payload, latest, err := w.Sync(from, baseHash)
	if err == nil {
		v.st.served(payload)
	}
	return payload, latest, err
}

// Epoch returns the held filter epoch for a ledger (0 if none).
func (v *Validator) Epoch(lid ids.LedgerID) uint64 {
	w, ok := v.fset.Load().windows[lid]
	if !ok {
		return 0
	}
	epoch, _, _ := w.Latest()
	return epoch
}

// mightBeRevoked consults the per-ledger filters. Holding the issuing
// ledger's filter and missing in it is the only "definitely not revoked"
// answer; a ledger without a filter epoch might have revoked anything.
func (v *Validator) mightBeRevoked(id ids.PhotoID) bool {
	w, ok := v.fset.Load().windows[id.Ledger]
	if !ok {
		return true
	}
	f := w.Filter()
	return f == nil || f.Test(ledger.FilterKey(id))
}

// ErrNoQuery is returned when a ledger query is needed but the
// validator has no BatchQueryFunc.
var ErrNoQuery = errors.New("proxy: no ledger query configured")

// Validate answers whether the photo may be displayed: a page of one
// through ValidateBatch, so it consults the filter, then the cache, then
// the ledger, and shares an in-flight query with concurrent pages.
func (v *Validator) Validate(id ids.PhotoID) (Result, error) {
	res, err := v.ValidateBatch([]ids.PhotoID{id})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// Resolve is Validate in relay.Resolver's shape — the state and the
// marshalled proof (nil for a filter answer) — so an oblivious egress
// resolves through the proxy as is.
func (v *Validator) Resolve(id ids.PhotoID) (ledger.State, []byte, error) {
	res, err := v.Validate(id)
	if err != nil {
		return ledger.StateUnknown, nil, err
	}
	var proof []byte
	if res.Proof != nil {
		proof = res.Proof.Marshal()
	}
	return res.State, proof, nil
}

// proofSlab holds one call's own copies of cached proofs, allocated a
// chunk at a time: one allocation per slabChunk hits, not one per hit,
// and a page with one hit does not pay for forty-eight.
type proofSlab []ledger.StatusProof

const slabChunk = 16

// keep returns a copy of p in the slab; the call keeps at most want more.
func (s *proofSlab) keep(p *ledger.StatusProof, want int) *ledger.StatusProof {
	if len(*s) == 0 {
		*s = make([]ledger.StatusProof, min(want, slabChunk))
	}
	q := &(*s)[0]
	*q = *p
	*s = (*s)[1:]
	return q
}

// ValidateBatch answers a page worth of identifiers, producing exactly
// the Results and Stats a sequential Validate loop over batch would:
// every occurrence counts toward Total; filter and cache answers count
// per occurrence; of a must-query identifier's occurrences the first is
// a ledger answer and the rest are cache hits (they would have hit the
// proof the first occurrence cached). Upstream, unique must-query
// identifiers are grouped per ledger into one StatusBatch round trip
// each, and one a concurrent call is already fetching is waited for
// (resolveBatch) — still a ledger answer, collapsed into another call's.
//
// The proofs in the results are the caller's: cached and shared ones
// are copies made for this call, queried ones sit in the array their
// StatusBatch answer arrived in (the cache keeps its own copy).
func (v *Validator) ValidateBatch(batch []ids.PhotoID) ([]Result, error) {
	n := len(batch)
	results := make([]Result, n)
	start := v.st.begin()
	tr := v.tracer.Start("validate_batch")
	defer tr.End()
	tr.Stage("scan")
	// The must-query bookkeeping is one flat array, taken from the
	// validator's free list at the first identifier neither filter nor
	// cache answers and handed back on return. The occurrences of unique
	// identifier j are the list first[j] → next[…] → -1 over batch
	// indices, last[j] its end; table finds j by identifier — open
	// addressing on Hash64, a power of two of slots at most half full,
	// each 0 or j+1. The second half of the identifier array is
	// resolveBatch's scratch.
	var (
		kept                     proofSlab
		scr                      *pageScratch
		queryIDs, sub            []ids.PhotoID // queryIDs: unique must-query IDs, first-appearance order
		first, last, next, table []int32
	)
	defer func() {
		if scr != nil {
			v.putScratch(scr)
		}
	}()
	for i, id := range batch {
		v.st.total.Inc()
		if v.cfg.UseFilter && !v.mightBeRevoked(id) {
			v.st.done(outFilterMiss, start)
			results[i] = Result{State: ledger.StateActive, Source: SourceFilter}
			continue
		}
		var cached ledger.StatusProof
		if v.cache.get(id, &cached) {
			v.st.done(outCacheHit, start)
			results[i] = Result{State: cached.State, Source: SourceCache, Proof: kept.keep(&cached, n-i)}
			continue
		}
		if table == nil {
			rest := n - i
			slots := 1 << bits.Len(uint(2*rest-1))
			scr = v.getScratch()
			links, idbuf := scr.grow(n+2*rest+slots, 2*rest)
			next, first, last, table = links[:n], links[n:n:n+rest], links[n+rest:n+rest:n+2*rest], links[n+2*rest:]
			queryIDs, sub = idbuf[:0:rest], idbuf[rest:]
		}
		next[i] = -1
		h := id.Hash64() & uint64(len(table)-1)
		for table[h] != 0 && queryIDs[table[h]-1] != id {
			h = (h + 1) & uint64(len(table)-1)
		}
		if j := table[h] - 1; j >= 0 {
			next[last[j]], last[j] = int32(i), int32(i)
			continue
		}
		queryIDs = append(queryIDs, id)
		table[h] = int32(len(queryIDs))
		first, last = append(first, int32(i)), append(last, int32(i))
	}
	tr.Notef("n=%d uniq=%d", len(batch), len(queryIDs))
	if len(queryIDs) == 0 {
		return results, nil
	}
	tr.Stage("upstream")
	answers := make([]answer, len(queryIDs))
	// The scan is done with last and table: they become resolveBatch's
	// scratch (table has at least 2·len(queryIDs) slots).
	v.resolveBatch(queryIDs, answers, last, table[:len(queryIDs)+1], sub, &kept)
	tr.Stage("finalize")
	var firstErr error
	for j, a := range answers {
		if a.err != nil {
			// The one outage classifier, per occurrence so the partition
			// stays exact: a recent-enough stale proof under
			// FailOpenFresh, else an open breaker is a fast-fail and
			// anything else is unavailable.
			if v.cfg.Degrade.Mode == DegradeFailOpenFresh {
				var stale ledger.StatusProof
				if v.cache.getStale(queryIDs[j], &stale) {
					sp := kept.keep(&stale, len(queryIDs)-j)
					for i := first[j]; i >= 0; i = next[i] {
						v.st.done(outStaleServed, start)
						results[i] = Result{State: sp.State, Source: SourceStale, Proof: sp}
					}
					continue
				}
			}
			o := outUnavailable
			if errors.Is(a.err, ErrBreakerOpen) {
				o = outBreakerFastFail
			}
			for i := first[j]; i >= 0; i = next[i] {
				v.st.done(o, start)
			}
			if firstErr == nil {
				firstErr = a.err
			}
			continue
		}
		p := a.proof
		for i := first[j]; i >= 0; i = next[i] {
			if i == first[j] || v.cfg.CacheCapacity <= 0 {
				v.st.done(outLedgerQuery, start)
				results[i] = Result{State: p.State, Source: SourceLedger, Proof: p}
			} else {
				v.st.done(outCacheHit, start)
				results[i] = Result{State: p.State, Source: SourceCache, Proof: p}
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// pageScratch is ValidateBatch's must-query bookkeeping: the link
// array and the identifier array, zeroed and reused by one page at a
// time. Nothing in it outlives the call: flights and the cache key by
// identifier value, and answers, which a flight's waiters read after
// its leader returns, are allocated per call.
type pageScratch struct {
	links []int32
	idbuf []ids.PhotoID
}

// freeScratch is how many idle scratches a validator keeps: more than
// the pages a proxy serves at once on a few cores. The free list is a
// channel, not a sync.Pool, so that what a page allocates depends on
// the page alone: a pool drops entries at garbage collection and, under
// the race detector, at random, and TestObsAddsNoAllocations compares
// exact counts under -race.
const freeScratch = 16

// getScratch takes an idle scratch, or a new one when none is idle.
func (v *Validator) getScratch() *pageScratch {
	select {
	case s := <-v.scratch:
		return s
	default:
		return new(pageScratch)
	}
}

// putScratch hands s back, dropping it when freeScratch are idle.
func (v *Validator) putScratch(s *pageScratch) {
	select {
	case v.scratch <- s:
	default:
	}
}

// grow returns the scratch as a zeroed link array of nl entries and an
// identifier array of ni, growing either that is too small.
func (s *pageScratch) grow(nl, ni int) ([]int32, []ids.PhotoID) {
	if cap(s.links) < nl {
		s.links = make([]int32, nl)
	}
	if cap(s.idbuf) < ni {
		s.idbuf = make([]ids.PhotoID, ni)
	}
	links := s.links[:nl]
	clear(links)
	return links, s.idbuf[:ni]
}

// answer is what resolveBatch has for one unique identifier: exactly
// one of proof and err is set.
type answer struct {
	proof *ledger.StatusProof
	err   error
}

// sfWait is this call's queryIDs[j] waiting on another call's flight.
type sfWait struct {
	j  int32
	on sfEntry
}

// resolveBatch answers queryIDs, answers[j] being queryIDs[j]'s,
// through the singleflight table — a load and a privacy measure (the
// ledger sees one aggregate query, §4.2). The call leads every
// identifier no flight is fetching yet and joins the flight of each
// other one. It fetches what it leads, caches the answers, retires its
// flights and wakes their waiters before it waits for any flight it
// joined, so calls waiting on each other cannot deadlock. A waiter
// copies its answer into kept: the proofs are still the caller's. led,
// cuts and sub are scratch as long as queryIDs (cuts one longer).
//
// A waiter whose flight failed re-enters once instead of adopting the
// error: the failure belonged to the leader's attempt (a transient
// fault, or a breaker that has since closed), and handing it to every
// waiter turns one failed request into a herd of failures — what the
// celebrity-takedown attack arm measures. One re-entry bounds the extra
// upstream load at 2× per caller; if the retry fails too, the error
// stands.
func (v *Validator) resolveBatch(queryIDs []ids.PhotoID, answers []answer, led, cuts []int32, sub []ids.PhotoID, kept *proofSlab) {
	if v.query == nil {
		for j := range answers {
			answers[j].err = ErrNoQuery
		}
		return
	}
	todo := led[:len(queryIDs)] // the unique indices to register
	for j := range todo {
		todo[j] = int32(j)
	}
	var waits []sfWait
	for reentry := false; ; reentry = true {
		fl := &inflight{done: make(chan struct{}), answers: answers}
		led, waits = todo[:0], waits[:0] // led fills todo's array behind the reads
		for _, j := range todo {
			id := queryIDs[j]
			s := &v.sf[id.Hash64()&v.sfMask]
			s.mu.Lock()
			if e, ok := s.m[id]; ok {
				if e.box == nil {
					e.box = new(ledger.StatusProof)
					s.m[id] = e
				}
				waits = append(waits, sfWait{j, e})
			} else {
				s.m[id] = sfEntry{fl: fl, j: j}
				led = append(led, j)
			}
			s.mu.Unlock()
		}
		if len(led) > 0 {
			v.fetch(queryIDs, answers, led, cuts, sub)
		}
		for _, j := range led {
			id, p := queryIDs[j], answers[j].proof
			if p != nil {
				v.cache.put(id, p)
			}
			s := &v.sf[id.Hash64()&v.sfMask]
			s.mu.Lock()
			// The fetched proofs sit in the upstream's array, which this
			// call's caller may scribble on once it returns: waiters copy
			// from the box.
			if box := s.m[id].box; box != nil && p != nil {
				*box = *p
			}
			delete(s.m, id)
			s.mu.Unlock()
		}
		close(fl.done)
		todo = led[:0]
		for k, w := range waits {
			<-w.on.fl.done
			a := w.on.fl.answers[w.on.j]
			if a.err != nil && !reentry {
				todo = append(todo, w.j)
				continue
			}
			if a.err == nil {
				a.proof = kept.keep(w.on.box, len(waits)-k)
			}
			answers[w.j] = a
		}
		if len(todo) == 0 {
			return
		}
	}
}

// fetch resolves queryIDs[j] for every j in led, grouped by ledger and
// cut to the wire limit, one StatusBatch round trip per chunk in
// parallel. It reorders led by ledger (stably, so ascending within
// one); cuts and sub are scratch.
func (v *Validator) fetch(queryIDs []ids.PhotoID, answers []answer, led, cuts []int32, sub []ids.PhotoID) {
	slices.SortStableFunc(led, func(a, b int32) int {
		return cmp.Compare(queryIDs[a].Ledger, queryIDs[b].Ledger)
	})
	sub = sub[:len(led)] // queryIDs in led order
	for k, j := range led {
		sub[k] = queryIDs[j]
	}
	cuts = cuts[:0] // chunk c is led[cuts[c]:cuts[c+1]]
	for k := range sub {
		if k == 0 || sub[k].Ledger != sub[k-1].Ledger || k-int(cuts[len(cuts)-1]) == wire.MaxStatusBatch {
			cuts = append(cuts, int32(k))
		}
	}
	cuts = append(cuts, int32(len(sub)))
	parallel.Do(len(cuts)-1, func(c int) {
		led, sub := led[cuts[c]:cuts[c+1]], sub[cuts[c]:cuts[c+1]]
		lid := sub[0].Ledger
		ps, err := v.queryChunk(lid, sub)
		for k, j := range led {
			switch {
			case err != nil:
				answers[j].err = err
			case ps[k] == nil || ps[k].ID != sub[k]:
				answers[j].err = fmt.Errorf("proxy: ledger %d returned a proof for the wrong id", lid)
			case !ps[k].State.Defined():
				// Cached, it would be forwarded for a TTL and fail every
				// viewer's whole page at decode.
				answers[j].err = fmt.Errorf("proxy: ledger %d returned undefined state %d for %s", lid, ps[k].State, sub[k])
			default:
				answers[j].proof = ps[k]
			}
		}
	})
}

// queryChunk makes one upstream batch call through the ledger's
// breaker; a nil error means one proof per identifier came back.
func (v *Validator) queryChunk(lid ids.LedgerID, sub []ids.PhotoID) ([]*ledger.StatusProof, error) {
	br := v.breakerFor(lid)
	if br != nil && !br.allow(v.cfg.Clock()) {
		// Classified per occurrence by the caller (outBreakerFastFail).
		return nil, fmt.Errorf("proxy: ledger %d: %w", lid, ErrBreakerOpen)
	}
	up := v.st.begin()
	ps, err := v.query(lid, sub)
	v.st.observeUpstream(v.st.upstreamBatch, up)
	if err == nil && len(ps) != len(sub) {
		err = fmt.Errorf("proxy: ledger %d returned %d proofs for %d ids", lid, len(ps), len(sub))
	}
	if br != nil {
		br.record(err == nil, v.cfg.Clock())
	}
	return ps, err
}

// Invalidate drops a cached proof, forcing the next validation to
// consult the ledger.
func (v *Validator) Invalidate(id ids.PhotoID) { v.cache.invalidate(id) }

// LedgerError ties a filter-refresh failure to the ledger it came from.
type LedgerError struct {
	Ledger ids.LedgerID
	Err    error
}

// Error implements the error interface.
func (e *LedgerError) Error() string {
	return fmt.Sprintf("proxy: refreshing ledger %d: %v", e.Ledger, e.Err)
}

// Unwrap exposes the underlying transport or protocol error.
func (e *LedgerError) Unwrap() error { return e.Err }

// RefreshError aggregates per-ledger refresh failures; ledgers that
// refreshed fine stay refreshed.
type RefreshError struct {
	// Failed lists failures in ascending ledger order.
	Failed []*LedgerError
}

// Error implements the error interface.
func (e *RefreshError) Error() string {
	if len(e.Failed) == 1 {
		return e.Failed[0].Error()
	}
	return fmt.Sprintf("%v (and %d more ledgers failed)", e.Failed[0], len(e.Failed)-1)
}

// Unwrap yields the lowest-numbered ledger's error — the deterministic
// "first error" regardless of refresh parallelism.
func (e *RefreshError) Unwrap() error { return e.Failed[0] }

// RefreshFilters runs one Pull round against every ledger in the
// directory: a delta when the held epoch and bits allow one, a full
// snapshot otherwise (cold start, expired epoch, resized filter,
// restarted ledger). Ledgers refresh in parallel; failures are
// collected into a RefreshError naming each failed ledger, with the
// lowest-numbered ledger's error as the deterministic Unwrap target.
//
// One refresh runs at a time: a caller that arrives while another is
// running waits for it and shares its result, so N concurrent callers
// cost each ledger one sync. (A window never installs a slower, older
// answer over a newer epoch either way.)
func (v *Validator) RefreshFilters(dir *wire.Directory) error {
	v.refreshMu.Lock()
	if fl := v.refreshing; fl != nil {
		v.refreshMu.Unlock()
		<-fl.done
		return fl.err
	}
	fl := &inflight{done: make(chan struct{})}
	v.refreshing = fl
	v.refreshMu.Unlock()

	fl.err = v.refreshAll(dir)

	v.refreshMu.Lock()
	v.refreshing = nil
	v.refreshMu.Unlock()
	close(fl.done)
	return fl.err
}

func (v *Validator) refreshAll(dir *wire.Directory) error {
	all := dir.All()
	lids := make([]ids.LedgerID, 0, len(all))
	for lid := range all {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(a, b int) bool { return lids[a] < lids[b] })
	errs := parallel.Map(lids, func(_ int, lid ids.LedgerID) error {
		_, _, err := v.Pull(lid, all[lid].FilterSync)
		return err
	})
	var failed []*LedgerError
	for i, err := range errs {
		if err != nil {
			failed = append(failed, &LedgerError{Ledger: lids[i], Err: err})
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return &RefreshError{Failed: failed}
}
