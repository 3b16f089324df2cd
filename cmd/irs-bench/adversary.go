package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"irs/internal/aggregator"
	"irs/internal/camera"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/phash"
	"irs/internal/photo"
	"irs/internal/proxy"
	"irs/internal/watermark"
	"irs/internal/wire"
)

// The -adversary harness is the degradation envelope: four seeded
// attack generators, each paired with a benign control twin of the
// same shape, so the report shows what an attacker costs the system
// *relative to the identical volume of honest traffic*:
//
//	index-flood    uploads crafted to collide in the SigIndex band
//	               buckets (unkeyed baseline vs keyed mixer)
//	herd-takedown  a thundering herd revalidating one taken-down
//	               celebrity id through singleflight, with a transient
//	               upstream failure at the herd moment
//	stampede       a cache-busting flood timed against a sync-epoch
//	               expiry, against a budget-bounded upstream, with
//	               per-client admission off vs on
//	race-appeal    concurrent appeal takedowns, revalidations and
//	               uploads over a shared population (the torn-state
//	               race), judged on post-quiescence invariants
//
// Every arm runs twice with the same seed; the decision hashes — the
// seeded request streams plus the outcome surfaces that the
// concurrency contracts pin independent of scheduling — must match
// (trace_stable). Outcome splits that legitimately depend on goroutine
// interleaving (which benign page lost the race to a flooded upstream,
// how many waiters re-led a collapsed flight) are reported as metrics
// but kept out of the hashes; each arm's note says which is which.
//
// Contract gates (identical decisions, ≤1 herd failure, race
// invariants) are always enforced. The wall-clock and availability
// envelope gates (unkeyed p99 degrades ≥10×, keyed stays ≤2×, benign
// availability ≥99% under admission) are enforced only with
// -adversary-enforce — the sized-down smoke in scripts/check.sh keeps
// the decision gates without asserting timing on loaded CI machines.

// adversaryConfig carries the -adversary flags.
type adversaryConfig struct {
	Out     string
	Seed    int64
	Enforce bool

	// index-flood arm.
	IndexBenign int
	IndexFlood  int
	IndexProbes int
	IndexReps   int

	// herd-takedown arm.
	HerdIDs        int
	HerdSize       int
	HerdWaves      int
	HerdCollateral int

	// stampede arm.
	StampedeIDs     int
	StampedeWorkers int
	StampedePages   int
	StampedeBatch   int
	StampedeFlood   int

	// race-appeal arm.
	RaceVictims int
	RaceFresh   int
}

// adversaryScale returns the preset workload sizes.
func adversaryScale(scale string, seed int64, out string, enforce bool) (adversaryConfig, error) {
	cfg := adversaryConfig{Out: out, Seed: seed, Enforce: enforce}
	switch scale {
	case "full":
		cfg.IndexBenign, cfg.IndexFlood, cfg.IndexProbes, cfg.IndexReps = 20000, 30000, 300, 7
		cfg.HerdIDs, cfg.HerdSize, cfg.HerdWaves, cfg.HerdCollateral = 2048, 64, 12, 4
		cfg.StampedeIDs, cfg.StampedeWorkers, cfg.StampedePages, cfg.StampedeBatch, cfg.StampedeFlood = 2048, 6, 24, 32, 12000
		cfg.RaceVictims, cfg.RaceFresh = 12, 24
	case "quick":
		cfg.IndexBenign, cfg.IndexFlood, cfg.IndexProbes, cfg.IndexReps = 3000, 1200, 80, 2
		cfg.HerdIDs, cfg.HerdSize, cfg.HerdWaves, cfg.HerdCollateral = 512, 24, 4, 2
		cfg.StampedeIDs, cfg.StampedeWorkers, cfg.StampedePages, cfg.StampedeBatch, cfg.StampedeFlood = 512, 4, 8, 24, 3000
		cfg.RaceVictims, cfg.RaceFresh = 6, 10
	default:
		return cfg, fmt.Errorf("bad -adversary-scale %q (quick|full)", scale)
	}
	return cfg, nil
}

// advArm is one measured sub-arm of the report.
type advArm struct {
	Arm     string `json:"arm"`
	Control bool   `json:"control"` // benign twin

	Requests int `json:"requests"`
	Failures int `json:"failures"`

	Availability float64 `json:"availability"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`

	DecisionHash string `json:"decision_hash"`
	TraceStable  bool   `json:"trace_stable"`

	Extra map[string]float64 `json:"extra,omitempty"`
	Note  string             `json:"note,omitempty"`
}

// advReport is the BENCH_adversary.json document.
type advReport struct {
	Seed       int64           `json:"seed"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Arms       []advArm        `json:"arms"`
	Gates      map[string]bool `json:"gates"`
	Enforced   bool            `json:"gates_enforced"`
	Note       string          `json:"note"`
}

// advOutcome is one run of one sub-arm.
type advOutcome struct {
	lat      []time.Duration
	requests int
	failures int
	decision hash.Hash
	extra    map[string]float64
}

func newAdvOutcome() *advOutcome {
	return &advOutcome{decision: sha256.New(), extra: map[string]float64{}}
}

func (o *advOutcome) hashU64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(b[:], v)
		o.decision.Write(b[:])
	}
}

func (o *advOutcome) hashSum() string {
	return hex.EncodeToString(o.decision.Sum(nil))
}

// advPct is the nearest-index percentile in milliseconds.
func advPct(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return float64(ds[int(p*float64(len(ds)-1))].Microseconds()) / 1000
}

// advArmOf reduces two same-seed runs to one report row.
func advArmOf(name string, control bool, note string, first, second *advOutcome) advArm {
	a := advArm{
		Arm:          name,
		Control:      control,
		Requests:     first.requests,
		Failures:     first.failures,
		P50Ms:        advPct(first.lat, 0.50),
		P95Ms:        advPct(first.lat, 0.95),
		P99Ms:        advPct(first.lat, 0.99),
		DecisionHash: first.hashSum(),
		TraceStable:  first.hashSum() == second.hashSum(),
		Extra:        first.extra,
		Note:         note,
	}
	if first.requests > 0 {
		a.Availability = float64(first.requests-first.failures) / float64(first.requests)
	}
	return a
}

// ---------------------------------------------------------------------
// Arm 1: index-flood — crafted band-bucket collisions vs the SigIndex.

// advIndexSetup is one fully built index variant awaiting measurement.
// All variants are built up front and timed in interleaved rounds so
// that machine-throughput drift (frequency scaling, thermal) lands on
// every arm equally instead of skewing whichever arm ran last.
type advIndexSetup struct {
	keyed, attack bool
	idx           *aggregator.SigIndex
	probes        []phash.Signature
	reg           *obs.Registry
	out           *advOutcome
	candBefore    float64
}

// advIndexBuild builds one index (keyed or unkeyed) over the benign
// population plus either the crafted-collision corpus (attack) or the
// same count of honest random signatures (control), and gates every
// probe against the linear oracle.
func advIndexBuild(cfg adversaryConfig, keyed, attack bool) (*advIndexSetup, error) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0xad10))
	benign := make([]phash.Signature, cfg.IndexBenign)
	for i := range benign {
		benign[i] = advRandSig(rng)
	}
	// Band width tracks log₂ of the database (the multi-index sizing
	// rule in phash/bands.go): at this population, 4 bands of 16 bits.
	// Width matters adversarially too — wider bands are exponentially
	// sparser, so the attacker's shared bits buy exponentially less
	// bucket density once the mixer has scattered them.
	const indexBands = 4
	var flood, probes []phash.Signature
	if attack {
		flood, probes = phash.CraftedCollisions(cfg.Seed^0xf100d, indexBands, cfg.IndexFlood, cfg.IndexProbes)
	} else {
		flood = make([]phash.Signature, cfg.IndexFlood)
		for i := range flood {
			flood[i] = advRandSig(rng)
		}
		probes = make([]phash.Signature, cfg.IndexProbes)
		for i := range probes {
			probes[i] = advRandSig(rng)
		}
	}

	reg := obs.NewRegistry()
	icfg := aggregator.IndexConfig{Bands: indexBands, MaxTail: 256, Obs: reg}
	if keyed {
		icfg.BandKey = uint64(cfg.Seed)*0x9e3779b97f4a7c15 | 1
	} else {
		icfg.Unkeyed = true
	}
	idx := aggregator.NewSigIndex(icfg)
	all := append(append([]phash.Signature{}, benign...), flood...)
	pids := make([]ids.PhotoID, len(all))
	for i := range pids {
		pids[i] = advTestID(i)
	}
	idx.AddAll(all, pids)
	// Flush any unindexed tail so every probe runs against the band
	// tables (the structure the flood targets), not the linear tail.
	for i := 0; idx.Stats().Tail > 0 && i < 2*icfg.MaxTail; i++ {
		idx.Add(advRandSig(rng), advTestID(len(all)+i))
	}

	// Identical-decisions gate: the keyed index (any key, and the
	// unkeyed baseline alike) must answer every probe byte-identically
	// to the linear reference scan. Always enforced.
	for pi, p := range probes {
		gotID, gotOK := idx.Lookup(p)
		wantID, wantOK := idx.LookupLinear(p)
		if gotOK != wantOK || gotID != wantID {
			return nil, fmt.Errorf("index-flood keyed=%v attack=%v probe %d: indexed (%v,%v) != linear (%v,%v)",
				keyed, attack, pi, gotID, gotOK, wantID, wantOK)
		}
	}

	// One untimed warmup pass settles the snapshot's cache lines before
	// the measured reps.
	for _, p := range probes {
		idx.Lookup(p)
	}
	out := newAdvOutcome()
	out.lat = make([]time.Duration, len(probes))
	candBefore, _ := obs.Value(reg.Snapshot(), "irs_index_candidates_total")
	return &advIndexSetup{keyed: keyed, attack: attack, idx: idx, probes: probes,
		reg: reg, out: out, candBefore: candBefore}, nil
}

// advIndexMeasureRep times one rep of the setup's probe set. Each rep
// probes the identical set, so the candidate work per probe is
// byte-identical across reps; only scheduler/GC/SMI noise differs. The
// per-probe minimum over reps is therefore an estimator of the
// structural cost alone — independent positive noise is filtered out,
// per-probe structural variation (bucket sizes, candidate loads) is
// kept, and the p99 of the minima measures the attack's real tail.
func (s *advIndexSetup) measureRep(rep int) {
	// Untimed rewarm: the interleaved variants evict each other's band
	// tables between turns; one cold pass restores per-arm warm-cache
	// conditions so the timed pass measures lookup structure, not the
	// harness's own cache thrash.
	for _, p := range s.probes {
		s.idx.Lookup(p)
	}
	out := s.out
	for j, p := range s.probes {
		t0 := time.Now()
		id, ok := s.idx.Lookup(p)
		d := time.Since(t0)
		if rep == 0 || d < out.lat[j] {
			out.lat[j] = d
		}
		out.requests++
		out.hashU64(uint64(p.A), uint64(p.D), uint64(p.P))
		if ok {
			out.hashU64(1, binary.BigEndian.Uint64(id.Rec[:8]))
		} else {
			out.hashU64(0)
		}
	}
}

// finish folds the candidate totals into the outcome once all reps ran.
// Every timed probe was preceded by one untimed rewarm probe, so the
// counter delta covers exactly twice the timed request count.
func (s *advIndexSetup) finish() *advOutcome {
	candAfter, _ := obs.Value(s.reg.Snapshot(), "irs_index_candidates_total")
	perProbe := (candAfter - s.candBefore) / float64(2*s.out.requests)
	s.out.extra["candidates_per_probe"] = perProbe
	s.out.hashU64(uint64(candAfter - s.candBefore))
	return s.out
}

func advRandSig(rng *rand.Rand) phash.Signature {
	return phash.Signature{A: phash.Hash(rng.Uint64()), D: phash.Hash(rng.Uint64()), P: phash.Hash(rng.Uint64())}
}

func advTestID(n int) ids.PhotoID {
	var id ids.PhotoID
	id.Ledger = ids.LedgerID(n%7 + 1)
	binary.BigEndian.PutUint64(id.Rec[:8], uint64(n))
	return id
}

// runAdvIndexFlood produces the four index sub-arms and their gates.
// Every variant (keyed × attack, and its same-seed replay twin) is
// built before any timing starts, and the reps are interleaved
// round-robin across variants, so the latency ratios compare arms
// measured under the same instantaneous machine conditions.
func runAdvIndexFlood(cfg adversaryConfig, report *advReport) error {
	note := "hash: probe stream + lookup results + candidate totals (fully deterministic, single-threaded)"
	setups := make([]*advIndexSetup, 0, 8)
	for _, keyed := range []bool{false, true} {
		for _, attack := range []bool{true, false} {
			for run := 0; run < 2; run++ {
				s, err := advIndexBuild(cfg, keyed, attack)
				if err != nil {
					return err
				}
				setups = append(setups, s)
			}
		}
	}
	for rep := 0; rep < cfg.IndexReps; rep++ {
		for _, s := range setups {
			s.measureRep(rep)
		}
	}
	arms := make(map[string]advArm, 4)
	for i := 0; i < len(setups); i += 2 {
		first, second := setups[i], setups[i+1]
		name := "index-flood/unkeyed"
		if first.keyed {
			name = "index-flood/keyed"
		}
		arm := advArmOf(name, !first.attack, note, first.finish(), second.finish())
		arms[fmt.Sprintf("%s/attack=%v", name, first.attack)] = arm
		report.Arms = append(report.Arms, arm)
	}
	unkeyedRatio := arms["index-flood/unkeyed/attack=true"].P99Ms / arms["index-flood/unkeyed/attack=false"].P99Ms
	keyedRatio := arms["index-flood/keyed/attack=true"].P99Ms / arms["index-flood/keyed/attack=false"].P99Ms
	candRatio := arms["index-flood/keyed/attack=true"].Extra["candidates_per_probe"] /
		arms["index-flood/unkeyed/attack=true"].Extra["candidates_per_probe"]
	report.Gates["index_unkeyed_p99_degrades_10x"] = unkeyedRatio >= 10
	report.Gates["index_keyed_p99_within_2x_of_benign"] = keyedRatio <= 2
	report.Gates["index_keyed_candidates_10x_below_unkeyed"] = candRatio <= 0.1
	fmt.Printf("%-34s unkeyed p99 ratio %6.1fx  keyed p99 ratio %5.2fx  keyed/unkeyed candidates %6.4f\n",
		"adversary: index-flood", unkeyedRatio, keyedRatio, candRatio)
	return nil
}

// ---------------------------------------------------------------------
// Arm 2: herd-takedown — thundering herd through singleflight with a
// transient leader failure.

// advFaultService counts upstream queries and can fail exactly one
// call when armed.
type advFaultService struct {
	wire.Service
	queries atomic.Uint64
	fail    atomic.Bool
}

var errAdvTransient = fmt.Errorf("adversary: transient upstream failure")

func (s *advFaultService) StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	s.queries.Add(uint64(len(batch)))
	if s.fail.CompareAndSwap(true, false) {
		return nil, &wire.TransportError{PreSend: true, Err: errAdvTransient}
	}
	return s.Service.StatusBatch(batch)
}

// advHerdOnce runs the herd: every wave invalidates the celebrity's
// cached proof (its takedown just propagated) and HerdSize goroutines
// revalidate it simultaneously; the attack arm injects one transient
// upstream failure per wave at exactly the herd moment. The waiter
// re-entry contract pins the blast radius: exactly the leader's caller
// fails, every waiter re-enters once and succeeds.
func advHerdOnce(cfg adversaryConfig, backend *serveLedger, celebrity ids.PhotoID, attack bool) (*advOutcome, error) {
	svc := &advFaultService{Service: backend.direct}
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	v := proxy.NewValidator(proxy.Config{
		CacheCapacity: cfg.HerdIDs * 2,
		CacheTTL:      time.Minute,
		Stripes:       16,
		Clock:         func() time.Time { return now },
	}, func(_ ids.LedgerID, page []ids.PhotoID) ([]*ledger.StatusProof, error) {
		return svc.StatusBatch(page)
	})
	// Warm the whole population so collateral traffic is cache hits.
	for lo := 0; lo < len(backend.ids); lo += 64 {
		hi := lo + 64
		if hi > len(backend.ids) {
			hi = len(backend.ids)
		}
		if _, err := v.ValidateBatch(backend.ids[lo:hi]); err != nil {
			return nil, fmt.Errorf("herd warm: %w", err)
		}
	}
	v.ResetStats()
	warmQueries := svc.queries.Load()

	out := newAdvOutcome()
	var collateralFail atomic.Uint64
	var collateralTotal atomic.Uint64
	collatLat := make([][]time.Duration, cfg.HerdSize)
	for wave := 0; wave < cfg.HerdWaves; wave++ {
		v.Invalidate(celebrity)
		if attack {
			svc.fail.Store(true)
		}
		var wg sync.WaitGroup
		waveFails := make([]int, cfg.HerdSize)
		waveLat := make([]time.Duration, cfg.HerdSize)
		for g := 0; g < cfg.HerdSize; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				t0 := time.Now()
				_, err := v.Validate(celebrity)
				waveLat[g] = time.Since(t0)
				if err != nil {
					waveFails[g] = 1
				}
				// Collateral: warm ids validated from the same goroutine,
				// deterministic per (wave, goroutine).
				for c := 0; c < cfg.HerdCollateral; c++ {
					id := backend.ids[(wave*cfg.HerdSize*cfg.HerdCollateral+g*cfg.HerdCollateral+c+1)%len(backend.ids)]
					if id == celebrity {
						id = backend.ids[1]
					}
					ct0 := time.Now()
					_, cerr := v.Validate(id)
					collatLat[g] = append(collatLat[g], time.Since(ct0))
					collateralTotal.Add(1)
					if cerr != nil {
						collateralFail.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		fails := 0
		for _, f := range waveFails {
			fails += f
		}
		out.lat = append(out.lat, waveLat...)
		out.requests += cfg.HerdSize
		out.failures += fails
		// Contract gate (always enforced): with the re-entry fix, a herd
		// of N suffers exactly one failure per injected transient fault —
		// the failed leader's own caller — and zero without one.
		want := 0
		if attack {
			want = 1
		}
		if fails != want {
			return nil, fmt.Errorf("herd attack=%v wave %d: %d callers failed, want exactly %d (singleflight re-entry contract)",
				attack, wave, fails, want)
		}
		out.hashU64(uint64(wave), uint64(fails))
	}
	herdQueries := svc.queries.Load() - warmQueries
	out.extra["upstream_queries"] = float64(herdQueries)
	out.extra["queries_per_wave"] = float64(herdQueries) / float64(cfg.HerdWaves)
	out.extra["collateral_requests"] = float64(collateralTotal.Load())
	out.extra["collateral_failures"] = float64(collateralFail.Load())
	var allCollat []time.Duration
	for _, ls := range collatLat {
		allCollat = append(allCollat, ls...)
	}
	out.extra["collateral_p99_ms"] = advPct(allCollat, 0.99)
	// Scheduling decides how many re-entering waiters found the second
	// flight vs led their own, so the query count per wave is bounded
	// (≤ herd+1), not pinned; it stays out of the hash.
	if maxQ := uint64(cfg.HerdWaves * (cfg.HerdSize + 1)); herdQueries > maxQ {
		return nil, fmt.Errorf("herd attack=%v: %d upstream queries for %d waves, want <= %d (singleflight collapse broken)",
			attack, herdQueries, cfg.HerdWaves, maxQ)
	}
	out.hashU64(uint64(collateralFail.Load()))
	return out, nil
}

func runAdvHerd(cfg adversaryConfig, report *advReport) error {
	backend, err := setupServeLedger(serveConfig{
		Workers: 1, IDs: cfg.HerdIDs, Batch: 64, Pages: 1,
		Revoked: 0.1, Zipf: 1.1, Seed: cfg.Seed ^ 0x4e2d,
	}, 0)
	if err != nil {
		return err
	}
	defer backend.close()
	celebrity := backend.ids[0]
	// The takedown: the celebrity's claim is revoked at the ledger, so
	// every herd revalidation now races to propagate the new state.
	if err := backend.l.PermanentRevoke(celebrity); err != nil {
		return err
	}

	note := "hash: per-wave failure counts + collateral failures (pinned by the singleflight re-entry " +
		"contract); upstream query counts are schedule-bounded, reported unhashed"
	for _, attack := range []bool{true, false} {
		first, err := advHerdOnce(cfg, backend, celebrity, attack)
		if err != nil {
			return err
		}
		second, err := advHerdOnce(cfg, backend, celebrity, attack)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		arm := advArmOf("herd-takedown", !attack, note, first, second)
		report.Arms = append(report.Arms, arm)
		if attack {
			report.Gates["herd_at_most_one_failure_per_wave"] = arm.Failures == cfg.HerdWaves
			report.Gates["herd_collateral_unharmed"] = arm.Extra["collateral_failures"] == 0
		}
		fmt.Printf("%-34s attack=%-5v avail %6.2f%%  p99 %7.3fms  queries/wave %.1f  collateral p99 %.3fms  stable=%v\n",
			"adversary: herd-takedown", attack, 100*arm.Availability, arm.P99Ms,
			arm.Extra["queries_per_wave"], arm.Extra["collateral_p99_ms"], arm.TraceStable)
	}
	return nil
}

// ---------------------------------------------------------------------
// Arm 3: stampede — cache-busting flood timed against a sync-epoch
// expiry, against a budget-bounded upstream, admission off vs on.

// advBudgetService models a capacity-bounded upstream: each epoch has
// a fixed query budget; demand beyond it fails with an overload error.
type advBudgetService struct {
	wire.Service
	budget  atomic.Int64
	queries atomic.Uint64
	denied  atomic.Uint64
}

var errAdvOverload = fmt.Errorf("adversary: upstream over capacity")

func (s *advBudgetService) take(n int64) error {
	s.queries.Add(uint64(n))
	if s.budget.Add(-n) < 0 {
		s.denied.Add(uint64(n))
		return &wire.TransportError{Err: errAdvOverload}
	}
	return nil
}

func (s *advBudgetService) StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	if err := s.take(int64(len(batch))); err != nil {
		return nil, err
	}
	return s.Service.StatusBatch(batch)
}

// advStampedeOnce: preload the population, then expire every cached
// proof at the epoch barrier and run the storm — benign pages racing a
// cache-busting flooder for a bounded upstream. With admission off the
// flooder's misses drain the epoch budget and benign pages fail; with
// admission on the flooder is denied at the door after its burst
// allowance and the budget survives for benign traffic.
func advStampedeOnce(cfg adversaryConfig, backend *serveLedger, truth map[ids.PhotoID]ledger.State, attack, admission bool) (*advOutcome, error) {
	svc := &advBudgetService{Service: backend.direct}
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	benignBudget := int64(cfg.StampedeWorkers * cfg.StampedePages * cfg.StampedeBatch)
	adm := proxy.AdmissionConfig{}
	if admission {
		adm = proxy.AdmissionConfig{
			Enabled: true,
			// Benign workers must ride entirely on their private burst (the
			// storm runs on a frozen clock, so there is no refill): budget
			// one worker's whole storm demand. The flooder gets the same
			// allowance and the small shared pool — a bounded bleed-through
			// — then is denied.
			Rate:          float64(cfg.StampedePages * cfg.StampedeBatch),
			Burst:         float64(cfg.StampedePages * cfg.StampedeBatch),
			OverflowRate:  1,
			OverflowBurst: float64(cfg.StampedeBatch),
		}
	}
	v := proxy.NewValidator(proxy.Config{
		CacheCapacity: cfg.StampedeIDs * 2,
		CacheTTL:      time.Minute,
		Stripes:       16,
		Clock:         func() time.Time { return now },
		Admission:     adm,
	}, func(_ ids.LedgerID, page []ids.PhotoID) ([]*ledger.StatusProof, error) {
		return svc.StatusBatch(page)
	})

	// Preload with an ample budget (a real proxy has been serving all
	// day when the epoch rolls).
	svc.budget.Store(int64(cfg.StampedeIDs) * 4)
	for lo := 0; lo < len(backend.ids); lo += cfg.StampedeBatch {
		hi := lo + cfg.StampedeBatch
		if hi > len(backend.ids) {
			hi = len(backend.ids)
		}
		if _, err := v.ValidateBatch(backend.ids[lo:hi]); err != nil {
			return nil, fmt.Errorf("stampede preload: %w", err)
		}
	}
	v.ResetStats()

	// Epoch barrier: every cached proof expires at once (the filter
	// refresh moment the attack is timed against), and the upstream
	// budget resets to the benign epoch demand plus slack.
	now = now.Add(2 * time.Minute)
	svc.budget.Store(benignBudget + int64(cfg.StampedeIDs))
	svc.queries.Store(0)
	svc.denied.Store(0)

	out := newAdvOutcome()
	var wg sync.WaitGroup
	var floodAdmitted, floodDenied uint64
	benignServed := make([]int, cfg.StampedeWorkers)
	benignTotal := make([]int, cfg.StampedeWorkers)
	benignLat := make([][]time.Duration, cfg.StampedeWorkers)
	streams := make([]hash.Hash, cfg.StampedeWorkers)

	if attack {
		// The flood lands exactly at the epoch boundary — before any
		// benign page has rewarmed the cache, which is what "timed
		// against sync epochs" buys the attacker. Running it to
		// completion first also makes the whole arm deterministic: with
		// admission off the budget is already drained (every benign page
		// fails), with admission on the flooder is denied at the door
		// after its burst allowance (every benign page succeeds).
		frng := rand.New(rand.NewSource(cfg.Seed ^ 0xf10cd))
		for i := 0; i < cfg.StampedeFlood; i++ {
			// Cache-busting: never-claimed identifiers, every one an
			// upstream miss.
			var id ids.PhotoID
			id.Ledger = 1
			frng.Read(id.Rec[:])
			if !v.Admit("flooder", 1) {
				floodDenied++
				continue
			}
			floodAdmitted++
			_, _ = v.Validate(id)
		}
	}
	for w := 0; w < cfg.StampedeWorkers; w++ {
		wg.Add(1)
		streams[w] = sha256.New()
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed ^ int64(0x57a0+w)))
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(backend.ids)-1))
			page := make([]ids.PhotoID, cfg.StampedeBatch)
			client := fmt.Sprintf("benign-%d", w)
			var idx [8]byte
			for p := 0; p < cfg.StampedePages; p++ {
				for i := range page {
					k := zipf.Uint64()
					page[i] = backend.ids[k]
					binary.BigEndian.PutUint64(idx[:], k)
					streams[w].Write(idx[:])
				}
				served := false
				if v.Admit(client, len(page)) {
					t0 := time.Now()
					res, err := v.ValidateBatch(page)
					benignLat[w] = append(benignLat[w], time.Since(t0))
					if err == nil {
						served = true
						for i, r := range res {
							if r.State != truth[page[i]] {
								served = false
								break
							}
						}
					}
				}
				benignTotal[w]++
				if served {
					benignServed[w]++
					streams[w].Write([]byte{1})
				} else {
					streams[w].Write([]byte{0})
				}
			}
		}(w)
	}
	wg.Wait()

	for w := 0; w < cfg.StampedeWorkers; w++ {
		out.requests += benignTotal[w]
		out.failures += benignTotal[w] - benignServed[w]
		out.lat = append(out.lat, benignLat[w]...)
		out.decision.Write(streams[w].Sum(nil))
	}
	out.extra["upstream_queries"] = float64(svc.queries.Load())
	out.extra["upstream_overloaded"] = float64(svc.denied.Load())
	out.extra["flood_admitted"] = float64(floodAdmitted)
	out.extra["flood_denied"] = float64(floodDenied)
	if attack {
		out.extra["flood_requests"] = float64(cfg.StampedeFlood)
	}
	// Everything is pinned: the flood runs serially at the epoch
	// boundary (its admission totals are a pure function of the frozen
	// clock and the bucket parameters) and every benign page's fate is
	// decided by the budget the flood left behind, not by scheduling.
	out.hashU64(floodAdmitted, floodDenied)
	return out, nil
}

func runAdvStampede(cfg adversaryConfig, report *advReport) error {
	backend, err := setupServeLedger(serveConfig{
		Workers: 1, IDs: cfg.StampedeIDs, Batch: cfg.StampedeBatch, Pages: 1,
		Revoked: 0.1, Zipf: 1.1, Seed: cfg.Seed ^ 0x57a3,
	}, 0)
	if err != nil {
		return err
	}
	defer backend.close()
	truth := make(map[ids.PhotoID]ledger.State, len(backend.ids))
	for _, id := range backend.ids {
		p, err := backend.direct.Status(id)
		if err != nil {
			return err
		}
		truth[id] = p.State
	}

	type spec struct {
		name              string
		attack, admission bool
	}
	specs := []spec{
		{"stampede/admission-off", true, false},
		{"stampede/admission-on", true, true},
		{"stampede/benign-twin", false, false},
	}
	note := "hash: benign request streams with per-page served bits + flooder admission totals; the flood " +
		"runs serially at the epoch boundary, so every outcome is pinned by the seed and the frozen clock"
	for _, sp := range specs {
		first, err := advStampedeOnce(cfg, backend, truth, sp.attack, sp.admission)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		second, err := advStampedeOnce(cfg, backend, truth, sp.attack, sp.admission)
		if err != nil {
			return fmt.Errorf("%s (replay): %w", sp.name, err)
		}
		arm := advArmOf(sp.name, !sp.attack, note, first, second)
		report.Arms = append(report.Arms, arm)
		switch sp.name {
		case "stampede/admission-on":
			report.Gates["stampede_admission_benign_availability_99"] = arm.Availability >= 0.99
			if f := arm.Extra["flood_requests"]; f > 0 {
				report.Gates["stampede_admission_denies_flood"] = arm.Extra["flood_denied"] >= 0.9*f
			}
		case "stampede/admission-off":
			report.Gates["stampede_unthrottled_flood_degrades_benign"] = arm.Availability < 0.99
		case "stampede/benign-twin":
			report.Gates["stampede_benign_twin_fully_served"] = arm.Availability == 1
		}
		fmt.Printf("%-34s %-24s avail %6.2f%%  p99 %7.3fms  upstream %d/%d overloaded  flood %d admitted %d denied  stable=%v\n",
			"adversary: stampede", sp.name, 100*arm.Availability, arm.P99Ms,
			int(arm.Extra["upstream_overloaded"]), int(arm.Extra["upstream_queries"]),
			int(arm.Extra["flood_admitted"]), int(arm.Extra["flood_denied"]), arm.TraceStable)
	}
	return nil
}

// ---------------------------------------------------------------------
// Arm 4: race-appeal — concurrent takedown/revalidate/upload torn-state
// race, judged on post-quiescence invariants.

// advRaceOnce uploads a victim population with a pre-claimed
// derivative each, then (attack) races appeal takedowns, revalidating
// serves and fresh uploads against each other, or (control) runs the
// same operations serially. The hash covers only the
// scheduling-independent surfaces: the victim population, the
// post-quiescence hosted set, the derivative re-upload decisions, and
// the conservation check.
func advRaceOnce(cfg adversaryConfig, attack bool) (*advOutcome, error) {
	base := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	var offNs atomic.Int64
	clock := func() time.Time { return base.Add(time.Duration(offNs.Load())) }
	ol, err := ledger.New(ledger.Config{ID: 1, Clock: clock, Rand: rand.New(rand.NewSource(cfg.Seed ^ 0xace1))})
	if err != nil {
		return nil, err
	}
	defer ol.Close()
	dir := wire.NewDirectory()
	dir.Register(1, &wire.Loopback{L: ol})
	agg, err := aggregator.New(aggregator.Config{
		Name:            "adversary",
		Unlabeled:       aggregator.RejectUnlabeled,
		Clock:           clock,
		RecheckInterval: time.Hour,
	}, dir)
	if err != nil {
		return nil, err
	}
	cam := camera.New(&wire.Loopback{L: ol}, "local://1", nil)

	out := newAdvOutcome()
	type victim struct {
		owned      *camera.Owned
		derivative *photo.Image
	}
	victims := make([]victim, cfg.RaceVictims)
	wmCfg := watermark.DefaultConfig()
	for i := range victims {
		labeled, owned, err := cam.ClaimAndLabel(cam.Shoot(int64(100+i), 192, 128))
		if err != nil {
			return nil, err
		}
		res, err := agg.Upload(labeled)
		if err != nil || !res.Accepted {
			return nil, fmt.Errorf("victim %d upload: %+v %v", i, res, err)
		}
		erased, err := watermark.Erase(labeled, wmCfg, int64(i+1))
		if err != nil {
			return nil, err
		}
		otherCam := camera.New(&wire.Loopback{L: ol}, "local://1", nil)
		relabeled, _, err := otherCam.ClaimAndLabel(erased)
		if err != nil {
			return nil, err
		}
		victims[i] = victim{owned: owned, derivative: relabeled}
		out.hashU64(binary.BigEndian.Uint64(owned.ID.Rec[:8]))
		if i%2 == 0 {
			if err := cam.Revoke(owned.ID); err != nil {
				return nil, err
			}
		}
	}
	fresh := make([]*photo.Image, cfg.RaceFresh)
	for i := range fresh {
		labeled, _, err := cam.ClaimAndLabel(cam.Shoot(int64(500+i), 192, 128))
		if err != nil {
			return nil, err
		}
		fresh[i] = labeled
	}

	serveLat := func(id ids.PhotoID) {
		t0 := time.Now()
		_, _ = agg.Serve(id)
		out.lat = append(out.lat, time.Since(t0))
	}
	var freshFails atomic.Uint64
	if attack {
		var wg sync.WaitGroup
		var latMu sync.Mutex
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(victims); i += 3 {
					agg.TakeDown(victims[i].owned.ID)
				}
			}(w)
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for lap := 0; lap < 6; lap++ {
					offNs.Add(int64(2 * time.Hour))
					for i := range victims {
						t0 := time.Now()
						_, _ = agg.Serve(victims[i].owned.ID)
						d := time.Since(t0)
						latMu.Lock()
						out.lat = append(out.lat, d)
						latMu.Unlock()
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lap := 0; lap < 4; lap++ {
				_, _ = agg.RecheckAll()
			}
		}()
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(fresh); i += 2 {
					if res, err := agg.Upload(fresh[i]); err != nil || !res.Accepted {
						freshFails.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
	} else {
		// Control twin: identical operations, serial order.
		for i := range victims {
			agg.TakeDown(victims[i].owned.ID)
		}
		offNs.Add(int64(2 * time.Hour))
		for lap := 0; lap < 2; lap++ {
			for i := range victims {
				serveLat(victims[i].owned.ID)
			}
			if _, err := agg.RecheckAll(); err != nil {
				return nil, err
			}
		}
		for i := range fresh {
			if res, err := agg.Upload(fresh[i]); err != nil || !res.Accepted {
				freshFails.Add(1)
			}
		}
	}

	// Post-quiescence invariants — the always-enforced gates.
	m := agg.MetricsSnapshot()
	var denied uint64
	for _, n := range m.Denied {
		denied += n
	}
	if m.Uploads != m.Accepted+denied {
		return nil, fmt.Errorf("race attack=%v: conservation broken: Uploads=%d Accepted=%d ΣDenied=%d",
			attack, m.Uploads, m.Accepted, denied)
	}
	for i := range victims {
		if agg.Hosts(victims[i].owned.ID) {
			return nil, fmt.Errorf("race attack=%v: victim %d still hosted after takedown storm", attack, i)
		}
		out.hashU64(uint64(i), 0) // victim gone
	}
	derivativeDenied := 0
	for i := range victims {
		res, err := agg.Upload(victims[i].derivative)
		if err != nil {
			return nil, err
		}
		accepted := uint64(0)
		if res.Accepted {
			accepted = 1
		} else {
			derivativeDenied++
		}
		out.hashU64(accepted)
	}
	if derivativeDenied > 0 {
		return nil, fmt.Errorf("race attack=%v: %d dead-ID derivative denials survived the takedown race", attack, derivativeDenied)
	}
	out.requests = cfg.RaceFresh + cfg.RaceVictims
	out.failures = int(freshFails.Load()) + derivativeDenied
	out.extra["rechecks"] = float64(m.Rechecks)
	out.extra["taken_down"] = float64(m.TakenDown)
	out.extra["fresh_upload_failures"] = float64(freshFails.Load())
	out.hashU64(uint64(freshFails.Load()))
	return out, nil
}

func runAdvRace(cfg adversaryConfig, report *advReport) error {
	note := "hash: victim population + post-quiescence hosted set, derivative decisions and conservation; " +
		"racy-phase recheck/serve counts are scheduling, reported unhashed; latency is the Serve path under the storm"
	for _, attack := range []bool{true, false} {
		first, err := advRaceOnce(cfg, attack)
		if err != nil {
			return err
		}
		second, err := advRaceOnce(cfg, attack)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		arm := advArmOf("race-appeal", !attack, note, first, second)
		report.Arms = append(report.Arms, arm)
		if attack {
			report.Gates["race_conservation_and_no_dead_id_denials"] = arm.Failures == 0
		}
		fmt.Printf("%-34s attack=%-5v avail %6.2f%%  serve p99 %7.3fms  rechecks %d  taken down %d  stable=%v\n",
			"adversary: race-appeal", attack, 100*arm.Availability, arm.P99Ms,
			int(arm.Extra["rechecks"]), int(arm.Extra["taken_down"]), arm.TraceStable)
	}
	return nil
}

// ---------------------------------------------------------------------

// runAdversary executes all four attacks (each with its control twin),
// enforces the gates, and writes the report.
func runAdversary(cfg adversaryConfig) (*advReport, error) {
	report := &advReport{
		Seed:       cfg.Seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Gates:      map[string]bool{},
		Enforced:   cfg.Enforce,
		Note: "four seeded attack generators, each with a benign control twin of identical volume; every " +
			"sub-arm runs twice per seed and trace_stable compares the decision hashes (request streams + " +
			"scheduling-independent outcome surfaces); contract gates always hold, envelope gates " +
			"(p99 ratios, availability floors) are asserted when gates_enforced",
	}
	if err := runAdvIndexFlood(cfg, report); err != nil {
		return nil, err
	}
	if err := runAdvHerd(cfg, report); err != nil {
		return nil, err
	}
	if err := runAdvStampede(cfg, report); err != nil {
		return nil, err
	}
	if err := runAdvRace(cfg, report); err != nil {
		return nil, err
	}

	for _, a := range report.Arms {
		if !a.TraceStable {
			return nil, fmt.Errorf("adversary: %s (control=%v) trace unstable — two seed-%d runs diverged",
				a.Arm, a.Control, cfg.Seed)
		}
	}
	if cfg.Enforce {
		var failed []string
		for name, ok := range report.Gates {
			if !ok {
				failed = append(failed, name)
			}
		}
		if len(failed) > 0 {
			sort.Strings(failed)
			return nil, fmt.Errorf("adversary: gates failed: %v", failed)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(cfg.Out, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %s\n", cfg.Out)
	return report, nil
}
