package aggregator

// Multi-index Hamming index for the derivative defense.
//
// The aggregator checks every upload's perceptual signature against the
// robust-hash database of all hosted photos (§3.2). The linear scan
// compares the probe with every stored signature; SigIndex makes the
// common case sub-linear with the pigeonhole band decomposition from
// internal/phash:
//
//   - Each of the three 64-bit hashes (A/D/P) is split into
//     cfg.bands contiguous bands carrying per-band search radii from
//     phash.BandRadii. Any hash within DefaultThreshold Hamming
//     distance of the probe matches at least one band to within its
//     radius (with bands = phash.NumBands = 11 the radii are all zero
//     and the bands match exactly — the classic statement).
//   - Before banding, each hash passes through a keyed
//     distance-preserving mixer (phash.BandMixer, keyed at
//     construction), so the bucket layout is unpredictable to
//     uploaders: mass-producing signatures that pile into one band
//     bucket — the bucket-density DoS the crafted-collision tests
//     mount — requires the key. Being an isometry, the mixer leaves every
//     distance, and therefore every lookup result, unchanged.
//   - Entries are bucketed per (hash kind, band) by band value in a
//     counting-sort (CSR) layout: a starts array indexed by band value
//     plus one ascending position list, so a probe is two array loads
//     and bucket membership is insertion-ordered for free.
//   - A lookup enumerates every band value within the band's radius,
//     marks hit positions in one bitmap per hash kind, and keeps the
//     positions marked by at least two kinds: Signature.Matches is a
//     2-of-3 vote, so a true match is within threshold on ≥2 hashes,
//     each of which pigeonholes into a band hit. Candidates are
//     verified in ascending position order with the exact
//     Signature.Matches — results are identical to the linear scan,
//     including first-match insertion-order ties, at any worker count.
//
// Concurrency follows the proxy's filter-set pattern: the index state
// is an immutable snapshot behind an atomic.Pointer, so lookups are
// lock-free and never block hosting writes. Writers serialize on a
// mutex and publish copy-on-write snapshots; appends share the entries
// backing array (readers never index past their snapshot's length),
// deletions copy the tombstone bitmap, and the band tables are rebuilt
// wholesale — in parallel across the 3×Bands tables — when the
// unindexed tail outgrows maxTail or tombstones pass the compaction
// threshold.

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"irs/internal/ids"
	"irs/internal/obs"
	"irs/internal/parallel"
	"irs/internal/phash"
)

// DefaultIndexBands is the default band count per 64-bit hash. Five
// ~13-bit bands probed within radii (2,1,1,1,1) carry the same
// within-threshold guarantee as the eleven exact-match bands, with
// far sparser buckets (2¹³ vs 2⁶) — the multi-index sweet spot for
// databases of 10⁴–10⁷ entries (band width ≈ log₂ n). Fewer, wider
// bands (4×16-bit) shrink buckets further but triple the probe
// enumeration (each radius-2 band expands to C(16,2)+17 values) and
// quadruple the table footprint; measured on a lookup sweep of 10⁴ to
// 2.5·10⁵ entries, the 5-band split won throughout that range.
const DefaultIndexBands = 5

// defaultMaxTail bounds the unindexed tail scanned linearly before a
// band-table rebuild is triggered. It matches lookupHashChunk ×2 so
// the tail never costs more than a couple of scan chunks.
const defaultMaxTail = 2 * lookupHashChunk

// lookupHashChunk is the linear-scan granularity. Like every chunk
// size feeding internal/parallel, it is a constant so chunk boundaries
// never depend on the worker count.
const lookupHashChunk = 512

// IndexConfig parameterizes a SigIndex.
type IndexConfig struct {
	// bands is the band count per 64-bit hash, 4..phash.NumBands.
	// Zero means DefaultIndexBands; out-of-range values are clamped.
	// phash.NumBands selects the classic exact-match decomposition.
	bands int
	// maxTail is the unindexed-tail length that triggers a band-table
	// rebuild. Zero means defaultMaxTail.
	maxTail int
	// BandKey seeds the keyed band mixer (phash.BandMixer) that
	// scrambles hashes into the banding domain, so uploaders cannot
	// precompute signatures that collide in the bucket tables. Zero
	// draws a fresh random key at construction — the secure default;
	// set it explicitly only where runs must reproduce bucket layouts
	// (differential tests, the benchmark). Lookup results are
	// identical to the linear scan for every key: the mixer is a
	// Hamming isometry, so the pigeonhole guarantee holds unchanged in
	// the mixed domain.
	BandKey uint64
	// unkeyed disables band mixing entirely, restoring the public
	// fixed band layout. Only the adversarial baseline tests use it —
	// it is the configuration the collision flood defeats.
	unkeyed bool
	// obs, when non-nil, interns the index's irs_index_* series
	// (lookup latency, candidate/verify counts, rebuild/compaction
	// events, entry gauges) in the given registry. nil disables
	// instrumentation at zero lookup cost.
	obs *obs.Registry
}

// indexObs holds the pre-interned instruments; nil disables.
type indexObs struct {
	lookupSec             *obs.Histogram
	hits, misses          *obs.Counter
	candidates, verified  *obs.Counter
	rebuilds, compactions *obs.Counter
	entries, live         *obs.Gauge
}

func newIndexObs(reg *obs.Registry) *indexObs {
	return &indexObs{
		lookupSec:   reg.Histogram("irs_index_lookup_seconds", nil),
		hits:        reg.Counter("irs_index_lookups_total", obs.L("result", "hit")),
		misses:      reg.Counter("irs_index_lookups_total", obs.L("result", "miss")),
		candidates:  reg.Counter("irs_index_candidates_total"),
		verified:    reg.Counter("irs_index_verified_total"),
		rebuilds:    reg.Counter("irs_index_rebuilds_total"),
		compactions: reg.Counter("irs_index_compactions_total"),
		entries:     reg.Gauge("irs_index_entries"),
		live:        reg.Gauge("irs_index_live"),
	}
}

// hashEntry is one stored signature with the identifier it resolves
// to. mix caches the signature's three hashes in the banding domain
// (the keyed mixer's output, or the raw hashes when unkeyed), so
// rebuilds and compactions never re-mix.
type hashEntry struct {
	sig phash.Signature
	mix [3]uint64
	id  ids.PhotoID
}

// csrTable is one (hash kind, band) bucket table in counting-sort
// layout: bucket v holds positions[starts[v]:starts[v+1]], ascending.
type csrTable struct {
	shift  uint8
	width  uint8
	radius uint8
	mask   uint32
	starts []int32
	pos    []int32
}

// mark sets the bitmap bit for every position in bucket v.
func (t *csrTable) mark(marks []uint64, v uint32) {
	lo, hi := t.starts[v], t.starts[v+1]
	for _, p := range t.pos[lo:hi] {
		marks[p>>6] |= 1 << (uint(p) & 63)
	}
}

// bandTable is the immutable multi-index over entries[:n].
type bandTable struct {
	n     int
	bands int
	tabs  []csrTable // 3*bands: kind-major
}

// indexSnapshot is the immutable state a lookup reads: all entries in
// insertion order, the tombstone bitmap, and the band tables covering
// the indexed prefix. entries[table.n:] is the linear tail.
type indexSnapshot struct {
	entries   []hashEntry
	dead      []uint64 // tombstone bitmap over entries
	deadCount int
	table     *bandTable // nil until the first rebuild
}

func (s *indexSnapshot) isDead(i int) bool {
	return s.dead[i>>6]>>(uint(i)&63)&1 == 1
}

// lookupScratch holds a lookup's per-kind mark bitmaps and candidate
// buffer. Bitmaps are returned to the pool zeroed (the combine pass
// clears every word it visits), so reuse needs no memset.
type lookupScratch struct {
	marks [3][]uint64
	cand  []int32
}

var scratchPool = sync.Pool{New: func() any { return new(lookupScratch) }}

// SigIndex is the aggregator's robust-hash database: insertion-ordered
// signatures with sub-linear Hamming lookup. Safe for concurrent use;
// lookups are lock-free.
type SigIndex struct {
	cfg   IndexConfig
	radii []int
	// mixer is the keyed banding isometry; nil when cfg.unkeyed.
	mixer *phash.BandMixer

	mu  sync.Mutex // serializes writers
	cur atomic.Pointer[indexSnapshot]
	// pos maps each live identifier to its entry positions (writer-side
	// bookkeeping for tombstone deletion; not part of the snapshot).
	pos         map[ids.PhotoID][]int32
	rebuilds    int
	compactions int

	obs *indexObs // nil when IndexConfig.obs was nil
}

// NewSigIndex creates an empty index.
func NewSigIndex(cfg IndexConfig) *SigIndex {
	if cfg.bands == 0 {
		cfg.bands = DefaultIndexBands
	}
	if cfg.bands < 4 {
		cfg.bands = 4
	}
	if cfg.bands > phash.NumBands {
		cfg.bands = phash.NumBands
	}
	if cfg.maxTail <= 0 {
		cfg.maxTail = defaultMaxTail
	}
	x := &SigIndex{
		cfg:   cfg,
		radii: phash.BandRadii(phash.DefaultThreshold, cfg.bands),
		pos:   make(map[ids.PhotoID][]int32),
	}
	if !cfg.unkeyed {
		if cfg.BandKey != 0 {
			x.mixer = phash.NewBandMixer(cfg.BandKey)
		} else {
			x.mixer = phash.NewRandomBandMixer()
		}
	}
	if cfg.obs != nil {
		x.obs = newIndexObs(cfg.obs)
	}
	x.cur.Store(&indexSnapshot{})
	return x
}

// Add appends one signature. The entry is visible to lookups as soon
// as Add returns; it rides the linear tail until the next rebuild.
func (x *SigIndex) Add(sig phash.Signature, id ids.PhotoID) {
	e := hashEntry{sig: sig, mix: x.mixer.MixSignature(sig), id: id}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.addLocked([]hashEntry{e})
}

// AddAll appends a batch of signatures (one per id) in order — the
// bulk-ingest path for whole batches of signatures. The band
// tables are rebuilt at most once for the whole batch.
func (x *SigIndex) AddAll(sigs []phash.Signature, pids []ids.PhotoID) {
	if len(sigs) != len(pids) {
		panic("aggregator: AddAll length mismatch")
	}
	if len(sigs) == 0 {
		return
	}
	batch := make([]hashEntry, len(sigs))
	for i := range sigs {
		batch[i] = hashEntry{sig: sigs[i], mix: x.mixer.MixSignature(sigs[i]), id: pids[i]}
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.addLocked(batch)
}

// addLocked appends batch and publishes a new snapshot, rebuilding the
// band tables when the tail outgrows maxTail. The entries and dead
// backing arrays are shared with prior snapshots: appends only write
// past every published snapshot's length, and the atomic publish
// orders those writes before any reader can index them.
func (x *SigIndex) addLocked(batch []hashEntry) {
	s := x.cur.Load()
	entries := s.entries
	dead := s.dead
	for _, e := range batch {
		n := len(entries)
		if n&63 == 0 {
			dead = append(dead, 0)
		}
		entries = append(entries, e)
		x.pos[e.id] = append(x.pos[e.id], int32(n))
	}
	next := &indexSnapshot{entries: entries, dead: dead, deadCount: s.deadCount, table: s.table}
	indexed := 0
	if s.table != nil {
		indexed = s.table.n
	}
	if len(entries)-indexed >= x.cfg.maxTail {
		next.table = x.buildTable(entries)
		x.rebuilds++
		if x.obs != nil {
			x.obs.rebuilds.Inc()
		}
	}
	x.cur.Store(next)
	x.publishGauges(next)
}

// publishGauges mirrors snapshot shape onto the entry gauges; called
// with the writer mutex held.
func (x *SigIndex) publishGauges(s *indexSnapshot) {
	if x.obs == nil {
		return
	}
	x.obs.entries.Set(int64(len(s.entries)))
	x.obs.live.Set(int64(len(s.entries) - s.deadCount))
}

// Remove tombstones every entry recorded under id, returning how many
// were removed. Tombstoned entries stop resolving immediately; their
// slots are reclaimed by compaction once a quarter of the database is
// dead.
func (x *SigIndex) Remove(id ids.PhotoID) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	positions := x.pos[id]
	if len(positions) == 0 {
		return 0
	}
	delete(x.pos, id)
	s := x.cur.Load()
	dead := make([]uint64, len(s.dead))
	copy(dead, s.dead)
	for _, p := range positions {
		dead[p>>6] |= 1 << (uint(p) & 63)
	}
	next := &indexSnapshot{
		entries:   s.entries,
		dead:      dead,
		deadCount: s.deadCount + len(positions),
		table:     s.table,
	}
	if next.deadCount >= 64 && next.deadCount*4 >= len(next.entries) {
		x.compactLocked(next)
	}
	x.cur.Store(next)
	x.publishGauges(next)
	return len(positions)
}

// compactLocked rewrites next without tombstoned entries, preserving
// insertion order (and therefore first-match semantics), and rebuilds
// the band tables over the surviving prefix.
func (x *SigIndex) compactLocked(next *indexSnapshot) {
	live := make([]hashEntry, 0, len(next.entries)-next.deadCount)
	for i := range next.entries {
		if !next.isDead(i) {
			live = append(live, next.entries[i])
		}
	}
	pos := make(map[ids.PhotoID][]int32, len(live))
	for i := range live {
		pos[live[i].id] = append(pos[live[i].id], int32(i))
	}
	x.pos = pos
	next.entries = live
	next.dead = make([]uint64, (len(live)+63)/64)
	next.deadCount = 0
	next.table = nil
	if len(live) >= x.cfg.maxTail {
		next.table = x.buildTable(live)
	}
	x.compactions++
	if x.obs != nil {
		x.obs.compactions.Inc()
	}
}

// buildTable constructs the 3×Bands CSR bucket tables over entries.
// Each table is independent, so the build fans out across the worker
// pool; bucket contents are ascending by construction and identical at
// any worker count.
func (x *SigIndex) buildTable(entries []hashEntry) *bandTable {
	m := x.cfg.bands
	t := &bandTable{n: len(entries), bands: m, tabs: make([]csrTable, 3*m)}
	parallel.Do(3*m, func(ti int) {
		k, b := ti/m, ti%m
		width := phash.BandWidth(b, m)
		shift := phash.BandShift(b, m)
		mask := uint32(1)<<uint(width) - 1
		starts := make([]int32, (1<<uint(width))+1)
		for i := range entries {
			v := uint32(entries[i].mix[k]>>uint(shift)) & mask
			starts[v+1]++
		}
		for v := 1; v < len(starts); v++ {
			starts[v] += starts[v-1]
		}
		pos := make([]int32, len(entries))
		fill := make([]int32, 1<<uint(width))
		copy(fill, starts[:1<<uint(width)])
		for i := range entries {
			v := uint32(entries[i].mix[k]>>uint(shift)) & mask
			pos[fill[v]] = int32(i)
			fill[v]++
		}
		t.tabs[ti] = csrTable{
			shift:  uint8(shift),
			width:  uint8(width),
			radius: uint8(x.radii[b]),
			mask:   mask,
			starts: starts,
			pos:    pos,
		}
	})
	return t
}

// Lookup returns the identifier of the earliest-inserted live entry
// whose signature Matches sig. Lock-free; results are identical to
// LookupLinear.
func (x *SigIndex) Lookup(sig phash.Signature) (ids.PhotoID, bool) {
	var start time.Time
	if x.obs != nil {
		start = time.Now()
	}
	id, ok, cand, verified := x.lookup(sig)
	if x.obs != nil {
		x.obs.lookupSec.Observe(time.Since(start).Seconds())
		x.obs.candidates.Add(uint64(cand))
		x.obs.verified.Add(uint64(verified))
		if ok {
			x.obs.hits.Inc()
		} else {
			x.obs.misses.Inc()
		}
	}
	return id, ok
}

// lookup runs the banded probe plus linear tail, returning the match
// along with how many banded candidates were produced and how many
// exact Matches verifications ran (banded candidates checked plus tail
// entries compared).
func (x *SigIndex) lookup(sig phash.Signature) (ids.PhotoID, bool, int, int) {
	s := x.cur.Load()
	tailStart := 0
	cand, verified := 0, 0
	if t := s.table; t != nil {
		tailStart = t.n
		id, ok, c, v := s.lookupIndexed(sig, x.mixer.MixSignature(sig), t)
		cand, verified = c, v
		if ok {
			return id, true, cand, verified
		}
	}
	// Linear tail: every index here is above any banded candidate, so
	// a banded hit always wins insertion order over the tail.
	for i := tailStart; i < len(s.entries); i++ {
		if s.isDead(i) {
			continue
		}
		verified++
		if s.entries[i].sig.Matches(sig) {
			return s.entries[i].id, true, cand, verified
		}
	}
	return ids.PhotoID{}, false, cand, verified
}

// lookupIndexed probes the band tables for the earliest live match in
// entries[:t.n]. mixed carries the probe's three hashes in the banding
// domain (matching hashEntry.mix); verification still compares raw
// signatures, so results are mixer-independent. The two trailing
// returns are the candidate count and the number of exact Matches
// verifications performed.
func (s *indexSnapshot) lookupIndexed(sig phash.Signature, mixed [3]uint64, t *bandTable) (ids.PhotoID, bool, int, int) {
	words := (t.n + 63) / 64
	sc := scratchPool.Get().(*lookupScratch)
	for k := range sc.marks {
		if cap(sc.marks[k]) < words {
			sc.marks[k] = make([]uint64, words)
		}
	}
	ma := sc.marks[0][:words]
	md := sc.marks[1][:words]
	mp := sc.marks[2][:words]
	for k := 0; k < 3; k++ {
		h := mixed[k]
		marks := sc.marks[k][:words]
		for b := 0; b < t.bands; b++ {
			tab := &t.tabs[k*t.bands+b]
			v := uint32(h>>tab.shift) & tab.mask
			tab.mark(marks, v)
			if tab.radius >= 1 {
				w := int(tab.width)
				for i := 0; i < w; i++ {
					v1 := v ^ 1<<uint(i)
					tab.mark(marks, v1)
					if tab.radius >= 2 {
						for j := i + 1; j < w; j++ {
							tab.mark(marks, v1^1<<uint(j))
						}
					}
				}
			}
		}
	}
	// Combine: keep positions marked by ≥2 hash kinds (the 2-of-3 vote
	// guarantee), zeroing the bitmaps as we go so the scratch returns
	// to the pool clean even on an early match below.
	cand := sc.cand[:0]
	for w := 0; w < words; w++ {
		a, d, p := ma[w], md[w], mp[w]
		if a|d|p == 0 {
			continue
		}
		ma[w], md[w], mp[w] = 0, 0, 0
		c := a&d | a&p | d&p
		for c != 0 {
			i := w<<6 + bits.TrailingZeros64(c)
			c &= c - 1
			cand = append(cand, int32(i))
		}
	}
	sc.cand = cand
	// Candidates are ascending: the first verified live hit is the
	// exact linear-scan answer.
	verified := 0
	for _, i := range cand {
		if s.isDead(int(i)) {
			continue
		}
		verified++
		if s.entries[i].sig.Matches(sig) {
			id := s.entries[i].id
			scratchPool.Put(sc)
			return id, true, len(cand), verified
		}
	}
	scratchPool.Put(sc)
	return ids.PhotoID{}, false, len(cand), verified
}

// LookupLinear is the reference O(n) scan over the same snapshot, kept
// for differential tests and the linear lookup benchmark. It
// preserves the historical behavior: serial below 2×lookupHashChunk
// entries or at one worker, chunked across the pool otherwise, with
// the lowest-index match winning at any worker count.
func (x *SigIndex) LookupLinear(sig phash.Signature) (ids.PhotoID, bool) {
	s := x.cur.Load()
	n := len(s.entries)
	if n < 2*lookupHashChunk || parallel.Workers() == 1 {
		for i := 0; i < n; i++ {
			if !s.isDead(i) && s.entries[i].sig.Matches(sig) {
				return s.entries[i].id, true
			}
		}
		return ids.PhotoID{}, false
	}
	firstHit := make([]int, (n+lookupHashChunk-1)/lookupHashChunk)
	parallel.ForChunks(n, lookupHashChunk, func(c, lo, hi int) {
		firstHit[c] = -1
		for i := lo; i < hi; i++ {
			if !s.isDead(i) && s.entries[i].sig.Matches(sig) {
				firstHit[c] = i
				return
			}
		}
	})
	for _, idx := range firstHit {
		if idx >= 0 {
			return s.entries[idx].id, true
		}
	}
	return ids.PhotoID{}, false
}

// IndexStats is a point-in-time summary of index shape and maintenance
// activity.
type IndexStats struct {
	Entries     int // stored entries, including tombstones
	Live        int // entries that resolve
	Dead        int // tombstoned entries awaiting compaction
	Indexed     int // entries covered by the band tables
	Tail        int // entries scanned linearly
	Bands       int
	Keyed       bool // band mixing active (IndexConfig.unkeyed unset)
	Rebuilds    int
	Compactions int
}

// stats returns current index statistics.
func (x *SigIndex) stats() IndexStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	s := x.cur.Load()
	st := IndexStats{
		Entries:     len(s.entries),
		Live:        len(s.entries) - s.deadCount,
		Dead:        s.deadCount,
		Bands:       x.cfg.bands,
		Keyed:       x.mixer != nil,
		Rebuilds:    x.rebuilds,
		Compactions: x.compactions,
	}
	if s.table != nil {
		st.Indexed = s.table.n
	}
	st.Tail = st.Entries - st.Indexed
	return st
}
