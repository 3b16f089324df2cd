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
// are lock-striped by identifier hash, and the per-ledger filter set is
// a copy-on-write snapshot behind an atomic pointer, so the read path
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

// QueryFunc resolves a status against the authoritative ledger. The
// HTTP server uses a wire.Directory; simulations count invocations.
type QueryFunc func(ids.PhotoID) (*ledger.StatusProof, error)

// BatchQueryFunc resolves many statuses against one ledger in a single
// upstream round trip (wire.Service.StatusBatch). Proofs come back in
// request order, one per identifier.
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
	// provided it is within StaleTTL of expiry; photos with no
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

// DegradePolicy bounds how far the proxy degrades during an outage.
type DegradePolicy struct {
	Mode DegradeMode
	// StaleTTL is how long past expiry a cached proof may still be
	// served under FailOpenFresh; 0 means 1 hour. The effective
	// revocation-propagation bound during an outage is CacheTTL +
	// StaleTTL.
	StaleTTL time.Duration
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
	// (filter → cache → upstream → degrade). nil disables tracing with
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

// filterSet is an immutable snapshot of the per-ledger revocation
// filters. Readers load it through an atomic pointer and probe without
// locking; SetFilter publishes a fresh copy (filters change a few times
// a minute at most — copy-on-write is cheap where it matters).
type filterSet struct {
	filters map[ids.LedgerID]heldFilter
}

// heldFilter is one ledger's installed filter and its epoch.
type heldFilter struct {
	epoch uint64
	f     *bloom.Filter
}

// Validator is the proxy core. Safe for concurrent use.
type Validator struct {
	cfg        Config
	query      QueryFunc
	batchQuery BatchQueryFunc
	cache      *cache

	// fset is the current filter snapshot; setMu serializes writers.
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

	// refreshMu guards refreshing, the RefreshFilters call in progress
	// (nil when idle).
	refreshMu  sync.Mutex
	refreshing *inflight
}

type sfStripe struct {
	mu sync.Mutex
	m  map[ids.PhotoID]*inflight
}

// inflight is one upstream call in progress that later callers wait on
// instead of repeating: a status query (proof, err) or a filter refresh
// (err only). The results are set before done closes.
type inflight struct {
	done  chan struct{}
	proof *ledger.StatusProof
	err   error
}

// NewValidator creates a proxy core that resolves misses through query.
func NewValidator(cfg Config, query QueryFunc) *Validator {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.CacheTTL == 0 {
		cfg.CacheTTL = 5 * time.Minute
	}
	stale := time.Duration(0)
	if cfg.Degrade.Mode == DegradeFailOpenFresh {
		if cfg.Degrade.StaleTTL == 0 {
			cfg.Degrade.StaleTTL = time.Hour
		}
		stale = cfg.Degrade.StaleTTL
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
	}
	for i := range v.sf {
		v.sf[i].m = make(map[ids.PhotoID]*inflight)
	}
	v.fset.Store(&filterSet{filters: make(map[ids.LedgerID]heldFilter)})
	return v
}

// SetBatchQuery installs the grouped upstream resolver used by
// ValidateBatch. Without one, batch validations fall back to per-ID
// queries. Set before serving traffic; the field is not synchronized.
func (v *Validator) SetBatchQuery(fn BatchQueryFunc) { v.batchQuery = fn }

// SetFilter installs or replaces a ledger's revocation filter snapshot.
// Readers racing with the swap see either the old or the new snapshot,
// never a mix.
func (v *Validator) SetFilter(id ids.LedgerID, epoch uint64, f *bloom.Filter) {
	v.setMu.Lock()
	defer v.setMu.Unlock()
	next := maps.Clone(v.fset.Load().filters)
	next[id] = heldFilter{epoch: epoch, f: f}
	v.fset.Store(&filterSet{filters: next})
}

// Epoch returns the held filter epoch for a ledger (0 if none).
func (v *Validator) Epoch(id ids.LedgerID) uint64 {
	return v.fset.Load().filters[id].epoch
}

// mightBeRevoked consults the per-ledger filters. Holding the issuing
// ledger's filter and missing in it is the only "definitely not revoked"
// answer; an absent filter means we cannot exclude revocation.
func (v *Validator) mightBeRevoked(id ids.PhotoID) bool {
	held, ok := v.fset.Load().filters[id.Ledger]
	if !ok {
		return true
	}
	return held.f.Test(ledger.FilterKey(id))
}

// ErrNoQuery is returned when a ledger query is needed but no QueryFunc
// was provided.
var ErrNoQuery = errors.New("proxy: no ledger query configured")

// Validate answers whether the photo may be displayed, consulting the
// filter, then the cache, then the ledger. Every call lands in exactly
// one outcome counter (see the conservation invariant on outcome).
func (v *Validator) Validate(id ids.PhotoID) (Result, error) {
	v.st.total.Inc()
	start := v.st.begin()
	tr := v.tracer.Start("validate")
	defer tr.End()
	if v.cfg.UseFilter {
		tr.Stage("filter")
		if !v.mightBeRevoked(id) {
			tr.Notef("miss")
			v.st.done(outFilterMiss, start)
			return Result{State: ledger.StateActive, Source: SourceFilter}, nil
		}
	}
	tr.Stage("cache")
	var cached ledger.StatusProof
	if v.cache.get(id, &cached) {
		tr.Notef("hit")
		v.st.done(outCacheHit, start)
		p := cached // the heap copy only a hit pays for
		return Result{State: p.State, Source: SourceCache, Proof: &p}, nil
	}
	tr.Stage("upstream")
	p, err := v.queryOnce(id)
	if err != nil {
		tr.Stage("degrade")
		res, o, derr := v.degrade(id, err)
		tr.Notef("%s", outcomeNames[o])
		v.st.done(o, start)
		return res, derr
	}
	v.cache.put(id, p)
	// Singleflight waiters count here too: their occurrence was
	// answered by a ledger round trip (Source says so), even though
	// the table collapsed it into another caller's request.
	v.st.done(outLedgerQuery, start)
	return Result{State: p.State, Source: SourceLedger, Proof: p}, nil
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

// degrade answers a validation whose upstream resolution failed,
// according to the configured DegradePolicy, and classifies the
// occurrence: a stale answer under FailOpenFresh is StaleServed, a
// breaker fast-fail that found no stale fallback is BreakerFastFails,
// and any other unanswered validation is Unavailable. Exactly one
// outcome per call keeps the conservation invariant exact (the old
// code counted an open breaker in querySF and then again here).
func (v *Validator) degrade(id ids.PhotoID, err error) (Result, outcome, error) {
	if v.cfg.Degrade.Mode == DegradeFailOpenFresh {
		var stale ledger.StatusProof
		if v.cache.getStale(id, &stale) {
			p := stale
			return Result{State: p.State, Source: SourceStale, Proof: &p}, outStaleServed, nil
		}
	}
	if errors.Is(err, ErrBreakerOpen) {
		return Result{}, outBreakerFastFail, err
	}
	return Result{}, outUnavailable, err
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
// proof the first occurrence cached). The upstream difference is the
// point: unique must-query identifiers are grouped per ledger and
// resolved in one StatusBatch round trip each, instead of one round
// trip per identifier.
//
// The proofs in the results are the caller's: cached ones are copies
// made for this call, queried ones sit in the array their StatusBatch
// answer arrived in (the cache keeps its own copy).
func (v *Validator) ValidateBatch(batch []ids.PhotoID) ([]Result, error) {
	n := len(batch)
	results := make([]Result, n)
	start := v.st.begin()
	tr := v.tracer.Start("validate_batch")
	defer tr.End()
	tr.Stage("scan")
	// The must-query bookkeeping is one flat array, sized once at the
	// first identifier neither filter nor cache answers. The occurrences
	// of unique identifier j are the list first[j] → next[…] → -1 over
	// batch indices, last[j] its end; table finds j by identifier — open
	// addressing on Hash64, a power of two of slots at most half full,
	// each 0 or j+1.
	var (
		kept                     proofSlab
		queryIDs                 []ids.PhotoID // unique must-query IDs, first-appearance order
		first, last, next, table []int32
	)
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
			links := make([]int32, n+2*rest+slots)
			next, first, last, table = links[:n], links[n:n:n+rest], links[n+rest:n+rest:n+2*rest], links[n+2*rest:]
			queryIDs = make([]ids.PhotoID, 0, rest)
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
	answers := v.resolveBatch(queryIDs)
	tr.Stage("finalize")
	var firstErr error
	for j, a := range answers {
		if a.err != nil {
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
			// Same classification as degrade: an open breaker is a
			// fast-fail, anything else is unavailable — per occurrence,
			// so the partition stays exact.
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
		v.cache.put(queryIDs[j], p)
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

// answer is what resolveBatch has for one unique identifier: exactly
// one of proof and err is set.
type answer struct {
	proof *ledger.StatusProof
	err   error
}

// resolveBatch fetches proofs for unique identifiers, grouped by ledger
// and chunked to the wire limit, answers[j] being queryIDs[j]'s. Error
// precedence is by unique-ID index (first-appearance order), so the
// caller's (results, error) pair is deterministic at any worker count.
func (v *Validator) resolveBatch(queryIDs []ids.PhotoID) []answer {
	answers := make([]answer, len(queryIDs))
	if v.batchQuery == nil {
		// Per-ID fallback, still collapsed through singleflight. The
		// caller owns the outcome accounting.
		parallel.Do(len(queryIDs), func(j int) {
			answers[j].proof, answers[j].err = v.querySF(queryIDs[j])
		})
		return answers
	}
	// Order the unique indices by ledger — stably, so ascending within
	// one — and cut the runs of one ledger to the wire limit.
	idxs := make([]int32, len(queryIDs))
	for j := range idxs {
		idxs[j] = int32(j)
	}
	slices.SortStableFunc(idxs, func(a, b int32) int {
		return cmp.Compare(queryIDs[a].Ledger, queryIDs[b].Ledger)
	})
	sub := make([]ids.PhotoID, len(queryIDs)) // queryIDs in idxs order
	for k, j := range idxs {
		sub[k] = queryIDs[j]
	}
	var cuts []int // chunk c is idxs[cuts[c]:cuts[c+1]]
	for k := range sub {
		if k == 0 || sub[k].Ledger != sub[k-1].Ledger || k-cuts[len(cuts)-1] == wire.MaxStatusBatch {
			cuts = append(cuts, k)
		}
	}
	cuts = append(cuts, len(sub))
	parallel.Do(len(cuts)-1, func(c int) {
		idxs, sub := idxs[cuts[c]:cuts[c+1]], sub[cuts[c]:cuts[c+1]]
		lid := sub[0].Ledger
		ps, err := v.queryChunk(lid, sub)
		for k, j := range idxs {
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
	return answers
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
	ps, err := v.batchQuery(lid, sub)
	v.st.observeUpstream(v.st.upstreamBatch, up)
	if err == nil && len(ps) != len(sub) {
		err = fmt.Errorf("proxy: ledger %d returned %d proofs for %d ids", lid, len(ps), len(sub))
	}
	if br != nil {
		br.record(err == nil, v.cfg.Clock())
	}
	return ps, err
}

// queryOnce collapses concurrent queries for the same identifier into a
// single upstream request — both a load and a privacy measure (the
// ledger sees one aggregate query, §4.2).
func (v *Validator) queryOnce(id ids.PhotoID) (*ledger.StatusProof, error) {
	return v.querySF(id)
}

// querySF is the singleflight core. It performs the upstream call but
// counts nothing: outcome accounting happens at the occurrence level in
// Validate/ValidateBatch, so singleflight waiters and leaders classify
// identically and the conservation invariant holds.
//
// A waiter that joined a flight whose leader failed re-enters once
// instead of adopting the error: the leader's failure belonged to the
// leader's attempt (a transient fault, or a breaker that has since
// closed), and propagating it to every waiter turns one failed request
// into a whole herd of failures — the celebrity-takedown attack arm
// measures exactly that amplification. One re-entry bounds the extra
// upstream load at 2× per caller while letting a recovered upstream
// answer the herd; if the retry flight fails too, the error stands.
func (v *Validator) querySF(id ids.PhotoID) (*ledger.StatusProof, error) {
	if v.query == nil {
		return nil, ErrNoQuery
	}
	s := &v.sf[id.Hash64()&v.sfMask]
	reentered := false
	for {
		s.mu.Lock()
		if fl, ok := s.m[id]; ok {
			s.mu.Unlock()
			<-fl.done
			if fl.err != nil && !reentered {
				reentered = true
				continue
			}
			return fl.proof, fl.err
		}
		fl := &inflight{done: make(chan struct{})}
		s.m[id] = fl
		s.mu.Unlock()

		if br := v.breakerFor(id.Ledger); br != nil && !br.allow(v.cfg.Clock()) {
			fl.err = fmt.Errorf("proxy: ledger %d: %w", id.Ledger, ErrBreakerOpen)
		} else {
			up := v.st.begin()
			fl.proof, fl.err = v.query(id)
			v.st.observeUpstream(v.st.upstreamQuery, up)
			if br != nil {
				br.record(fl.err == nil, v.cfg.Clock())
			}
		}
		// Retire the flight before waking its waiters: a waiter that
		// re-enters after a failed flight must not find that flight
		// still registered and fail on it a second time.
		s.mu.Lock()
		delete(s.m, id)
		s.mu.Unlock()
		close(fl.done)
		return fl.proof, fl.err
	}
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

// RefreshFilters runs one bloom.Pull round against every ledger in the
// directory: a delta when the held epoch and bits allow one, a full
// snapshot otherwise (cold start, expired epoch, resized filter,
// restarted ledger). Ledgers refresh in parallel; failures are
// collected into a RefreshError naming each failed ledger, with the
// lowest-numbered ledger's error as the deterministic Unwrap target.
//
// One refresh runs at a time: a caller that arrives while another is
// running waits for it and shares its result, so N concurrent callers
// cost each ledger one sync, and two pulls of one ledger can never
// race to install their answers out of order (the slower, older one
// last).
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
		return v.refreshOne(lid, all[lid])
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

func (v *Validator) refreshOne(lid ids.LedgerID, client wire.Service) error {
	held := v.fset.Load().filters[lid]
	next, latest, _, err := bloom.Pull(client.FilterSync, held.epoch, held.f)
	if next != nil {
		v.SetFilter(lid, latest, next)
	}
	return err
}
