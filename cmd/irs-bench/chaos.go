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

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/parallel"
	"irs/internal/proxy"
	"irs/internal/wire"
)

// The -chaos harness drives a closed-loop page-view load (workers
// validating pages of Zipf-drawn ids; the -serve-* flags size it)
// through an injected ledger outage and measures what each degradation posture serves. A
// deterministic fraction of every worker's pages falls inside an
// outage window during which the (wrapped) ledger transport refuses
// every request; phase boundaries are barriers, so which requests see
// the outage is a function of the seed alone, never of scheduling. The
// four arms toggle the two serving-path protections independently on
// both degradation modes that matter:
//
//	fail-closed/raw            errors propagate, no retry, no breaker
//	fail-closed/retry          RetryClient, no breaker
//	fail-closed/retry+breaker  RetryClient + per-ledger circuit breaker
//	fail-open-fresh/retry+breaker  + stale-proof serving (DegradePolicy)
//
// Correctness is judged against the static ground truth captured at
// setup (nothing is revoked mid-run, so a stale proof is still the
// truth — exactly the regime FailOpenFresh is for). Every arm runs
// twice with the same seed; the request/outcome trace hashes must
// match (trace_stable), the fault-replay determinism check.

// chaosConfig carries the -chaos flags (sharing the -serve-* workload
// shape).
type chaosConfig struct {
	Out     string
	Workers int
	IDs     int
	Batch   int
	Pages   int // measured pages per worker across all three phases
	Revoked float64
	Zipf    float64
	Outage  float64 // fraction of pages inside the outage window
	Seed    int64
}

// chaosArm is one measured posture.
type chaosArm struct {
	Arm     string `json:"arm"`
	Retry   bool   `json:"retry"`
	Breaker bool   `json:"breaker"`
	Degrade string `json:"degrade"`

	PagesTotal   int `json:"pages_total"`
	PagesServed  int `json:"pages_served"`
	PagesCorrect int `json:"pages_correct_and_served"`
	OutagePages  int `json:"outage_pages"`

	Availability float64 `json:"availability"`
	Goodput      float64 `json:"goodput"` // correct-and-served / total

	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	OutageP99Ms float64 `json:"outage_p99_ms"` // p99 inside the window

	Proxy        proxy.StatsSnapshot `json:"proxy_stats"`
	Retries      uint64              `json:"retries"`
	BudgetDenied uint64              `json:"budget_denied"`

	TraceHash   string `json:"trace_hash"`
	TraceStable bool   `json:"trace_stable"`

	// Metrics is the first run's obs registry snapshot. MetricsStable
	// compares the scheduling-independent view of both runs: total
	// validations plus outcome-group sums (hit+query, unavailable+
	// fast-fail, stale, filter). The split inside a group — e.g. how many
	// outage pages fast-failed vs erred upstream — legitimately depends
	// on when the breaker tripped relative to each in-flight page, so
	// only single-worker runs pin the full snapshot byte for byte (the
	// regression test in chaos_test.go does exactly that).
	Metrics       []obs.SeriesSnapshot `json:"metrics,omitempty"`
	MetricsStable bool                 `json:"metrics_stable"`
}

// chaosReport is the BENCH_chaos.json document.
type chaosReport struct {
	Seed       int64      `json:"seed"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Workers    int        `json:"workers"`
	IDs        int        `json:"ids"`
	Revoked    float64    `json:"revoked_fraction"`
	Zipf       float64    `json:"zipf_s"`
	Outage     float64    `json:"outage_fraction"`
	Arms       []chaosArm `json:"arms"`
	Note       string     `json:"note"`
}

// chaosSpec is one arm's posture.
type chaosSpec struct {
	name    string
	retry   bool
	breaker bool
	degrade proxy.DegradeMode
}

// chaosService injects the outage: while down, every call fails with a
// pre-send transport error (the connection-refused class a dead ledger
// produces), which both retry policies legitimately retry.
type chaosService struct {
	wire.Service
	down *atomic.Bool
}

// errLedgerDown is the injected failure.
var errLedgerDown = fmt.Errorf("chaos: ledger down")

func (c *chaosService) StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	if c.down.Load() {
		return nil, &wire.TransportError{PreSend: true, Err: errLedgerDown}
	}
	return c.Service.StatusBatch(batch)
}

// chaosWorker is one closed-loop browser's per-run state.
type chaosWorker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	h    hash.Hash

	lat       []time.Duration
	outageLat []time.Duration
	total     int
	served    int
	correct   int
}

// chaosOutcome is one run's measurements (metrics + trace hash).
type chaosOutcome struct {
	workers   []*chaosWorker
	proxy     proxy.StatsSnapshot
	retries   uint64
	denied    uint64
	traceHash string
	snap      []obs.SeriesSnapshot
	promText  string
}

// runChaosOnce executes one arm once: preload, warm, outage, recover.
func runChaosOnce(cfg chaosConfig, backend *serveLedger, spec chaosSpec, truth map[ids.PhotoID]ledger.State) (*chaosOutcome, error) {
	var down atomic.Bool
	chaos := &chaosService{Service: backend.direct, down: &down}
	var svc wire.Service = chaos
	var rc *wire.RetryClient
	if spec.retry {
		rc = wire.NewRetryClient(chaos, wire.RetryConfig{
			MaxAttempts: 3,
			// Millisecond-scale backoffs keep the harness honest about
			// retry amplification without dominating wall clock; the
			// per-attempt deadline is moot against an in-process backend.
			BaseBackoff:    time.Millisecond,
			MaxBackoff:     4 * time.Millisecond,
			AttemptTimeout: -1,
			Seed:           cfg.Seed ^ 0xc4a0,
		})
		svc = rc
	}

	// The validator clock is advanced only at phase barriers: frozen
	// time keeps warm-phase proofs fresh, one jump expires them all
	// before the outage (so FailOpenFresh must lean on the stale
	// window), and a second jump lets the breaker's cooldown lapse so
	// one probe, sent from the barrier itself, closes it again before
	// the recovery phase.
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	cacheTTL := time.Minute
	// A fresh registry per run, on the phase clock: the validator's
	// latency histograms observe zero-width intervals (the clock only
	// advances at barriers), so two same-seed runs produce snapshots
	// that differ only where scheduling legitimately leaks in (see
	// chaosArm.MetricsStable).
	reg := obs.NewRegistry()
	clock := func() time.Time { return now }
	v := proxy.NewValidator(proxy.Config{
		CacheCapacity: cfg.IDs * 2,
		CacheTTL:      cacheTTL,
		Degrade:       proxy.DegradePolicy{Mode: spec.degrade},
		Breaker:       proxy.BreakerConfig{Enabled: spec.breaker},
		Clock:         clock,
		Obs:           reg,
	}, func(_ ids.LedgerID, page []ids.PhotoID) ([]*ledger.StatusProof, error) {
		return svc.StatusBatch(page)
	})

	// Preload: cache the whole population so the outage tests staleness
	// policy, not cold-start coverage (a real proxy has been serving for
	// hours before a ledger dies).
	for lo := 0; lo < len(backend.ids); lo += cfg.Batch {
		hi := lo + cfg.Batch
		if hi > len(backend.ids) {
			hi = len(backend.ids)
		}
		if _, err := v.ValidateBatch(backend.ids[lo:hi]); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	v.ResetStats()

	workers := make([]*chaosWorker, cfg.Workers)
	for w := range workers {
		rng := rand.New(rand.NewSource(parallel.SplitSeed(cfg.Seed, w)))
		workers[w] = &chaosWorker{
			rng:  rng,
			zipf: rand.NewZipf(rng, cfg.Zipf, 1, uint64(len(backend.ids)-1)),
			h:    sha256.New(),
		}
	}

	outagePages := int(float64(cfg.Pages)*cfg.Outage + 0.5)
	if outagePages < 1 {
		outagePages = 1
	}
	warmPages := (cfg.Pages - outagePages) / 2
	recoverPages := cfg.Pages - outagePages - warmPages

	runPhase := func(marker byte, pages int, inOutage bool) error {
		var wg sync.WaitGroup
		errs := make([]error, len(workers))
		for w, cw := range workers {
			wg.Add(1)
			go func(w int, cw *chaosWorker) {
				defer wg.Done()
				cw.h.Write([]byte{marker})
				page := make([]ids.PhotoID, cfg.Batch)
				var idxBuf [8]byte
				for p := 0; p < pages; p++ {
					for i := range page {
						k := cw.zipf.Uint64()
						page[i] = backend.ids[k]
						binary.BigEndian.PutUint64(idxBuf[:], k)
						cw.h.Write(idxBuf[:])
					}
					t0 := time.Now()
					res, err := v.ValidateBatch(page)
					d := time.Since(t0)
					cw.total++
					cw.lat = append(cw.lat, d)
					if inOutage {
						cw.outageLat = append(cw.outageLat, d)
					}
					served := err == nil
					correct := served
					if served {
						for i, r := range res {
							if r.State != truth[page[i]] {
								correct = false
								break
							}
						}
					} else if spec.degrade == proxy.DegradeFailClosed && !wantOutageError(err, inOutage) {
						errs[w] = fmt.Errorf("unexpected failure outside the outage: %w", err)
						return
					}
					if served {
						cw.served++
					}
					if correct {
						cw.correct++
					}
					outcome := byte(0)
					if served {
						outcome = 1
					}
					cw.h.Write([]byte{outcome})
				}
			}(w, cw)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	if err := runPhase('W', warmPages, false); err != nil {
		return nil, err
	}
	now = now.Add(cacheTTL + time.Minute) // expire every cached proof
	down.Store(true)
	if err := runPhase('O', outagePages, true); err != nil {
		return nil, err
	}
	down.Store(false)
	now = now.Add(time.Minute) // past the breaker cooldown
	if spec.breaker {
		// Spend the half-open probe here, on the barrier. The breaker
		// admits one request while half-open and fast-fails the rest, so
		// left to the workers, which of them won the slot — and how many
		// pages the others got through before the probe's answer closed
		// the breaker — decided who was served fresh, who stale and (fail
		// closed) who failed outside the outage: the one place scheduling
		// leaked into outcomes.
		if _, err := v.ValidateBatch(backend.ids[:1]); err != nil {
			return nil, fmt.Errorf("recovery probe: %w", err)
		}
	}
	if err := runPhase('R', recoverPages, false); err != nil {
		return nil, err
	}

	out := &chaosOutcome{workers: workers, proxy: v.Stats(), snap: reg.Snapshot(), promText: reg.PrometheusText()}
	if rc != nil {
		st := rc.Stats()
		out.retries, out.denied = st.Retries, st.BudgetDenied
	}
	combined := sha256.New()
	for _, cw := range workers {
		combined.Write(cw.h.Sum(nil))
	}
	out.traceHash = hex.EncodeToString(combined.Sum(nil))
	return out, nil
}

// wantOutageError says whether a fail-closed page error is expected.
func wantOutageError(err error, inOutage bool) bool {
	return err != nil && inOutage
}

// chaosMetricsKey reduces a snapshot to its scheduling-independent
// view: the validation total plus outcome-group sums. The groups pair
// outcomes whose individual split depends on goroutine interleaving
// (cache hit vs ledger query when workers race on the same expired id;
// upstream error vs breaker fast-fail around the trip point) but whose
// sum is fixed by the seed.
func chaosMetricsKey(snap []obs.SeriesSnapshot) string {
	val := func(name string, labels ...obs.Label) float64 {
		v, _ := obs.Value(snap, name, labels...)
		return v
	}
	out := func(o string) float64 {
		return val("irs_proxy_outcomes_total", obs.L("outcome", o))
	}
	return fmt.Sprintf("total=%.0f served=%.0f failed=%.0f stale=%.0f filter=%.0f",
		val("irs_proxy_validations_total"),
		out("cache_hit")+out("ledger_query"),
		out("unavailable")+out("breaker_fast_fail"),
		out("stale_served"),
		out("filter_miss"))
}

// runChaosArm runs one posture twice with the same seed: the first run
// supplies the metrics, the second only its trace hash (the replay
// determinism check).
func runChaosArm(cfg chaosConfig, backend *serveLedger, spec chaosSpec, truth map[ids.PhotoID]ledger.State) (chaosArm, error) {
	first, err := runChaosOnce(cfg, backend, spec, truth)
	if err != nil {
		return chaosArm{}, fmt.Errorf("%s: %w", spec.name, err)
	}
	second, err := runChaosOnce(cfg, backend, spec, truth)
	if err != nil {
		return chaosArm{}, fmt.Errorf("%s (replay): %w", spec.name, err)
	}

	var all, outage []time.Duration
	total, served, correct := 0, 0, 0
	for _, cw := range first.workers {
		all = append(all, cw.lat...)
		outage = append(outage, cw.outageLat...)
		total += cw.total
		served += cw.served
		correct += cw.correct
	}
	pct := func(ds []time.Duration, p float64) float64 {
		if len(ds) == 0 {
			return 0
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		return float64(ds[int(p*float64(len(ds)-1))].Microseconds()) / 1000
	}
	arm := chaosArm{
		Arm:           spec.name,
		Retry:         spec.retry,
		Breaker:       spec.breaker,
		Degrade:       spec.degrade.String(),
		Metrics:       first.snap,
		MetricsStable: chaosMetricsKey(first.snap) == chaosMetricsKey(second.snap),
		PagesTotal:    total,
		PagesServed:   served,
		PagesCorrect:  correct,
		OutagePages:   len(outage),
		P50Ms:         pct(all, 0.50),
		P95Ms:         pct(all, 0.95),
		P99Ms:         pct(all, 0.99),
		OutageP99Ms:   pct(outage, 0.99),
		Proxy:         first.proxy,
		Retries:       first.retries,
		BudgetDenied:  first.denied,
		TraceHash:     first.traceHash,
		TraceStable:   first.traceHash == second.traceHash,
	}
	if total > 0 {
		arm.Availability = float64(served) / float64(total)
		arm.Goodput = float64(correct) / float64(total)
	}
	return arm, nil
}

// runChaos executes every posture and writes the report.
func runChaos(cfg chaosConfig) error {
	backend, err := setupServeLedger(cfg.serveConfig())
	if err != nil {
		return err
	}
	defer backend.close()

	// Static ground truth: the state every id was claimed with.
	truth := make(map[ids.PhotoID]ledger.State, len(backend.ids))
	for _, id := range backend.ids {
		p, err := backend.direct.Status(id)
		if err != nil {
			return err
		}
		truth[id] = p.State
	}

	specs := []chaosSpec{
		{"fail-closed/raw", false, false, proxy.DegradeFailClosed},
		{"fail-closed/retry", true, false, proxy.DegradeFailClosed},
		{"fail-closed/retry+breaker", true, true, proxy.DegradeFailClosed},
		{"fail-open-fresh/retry+breaker", true, true, proxy.DegradeFailOpenFresh},
	}
	report := chaosReport{
		Seed:       cfg.Seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    cfg.Workers,
		IDs:        cfg.IDs,
		Revoked:    cfg.Revoked,
		Zipf:       cfg.Zipf,
		Outage:     cfg.Outage,
		Note: "closed loop against a pre-warmed proxy; the middle outage_fraction of each worker's " +
			"pages runs with the ledger transport down; correctness is vs the static claim-time " +
			"truth; each arm runs twice per seed and trace_stable compares the request/outcome hashes",
	}
	for _, spec := range specs {
		arm, err := runChaosArm(cfg, backend, spec, truth)
		if err != nil {
			return err
		}
		report.Arms = append(report.Arms, arm)
		fmt.Printf("%-30s avail %5.1f%%  goodput %5.1f%%  p99 %7.2fms  outage-p99 %7.2fms  stale %d  fastfail %d  stable=%v metrics_stable=%v\n",
			arm.Arm, 100*arm.Availability, 100*arm.Goodput, arm.P99Ms, arm.OutageP99Ms,
			arm.Proxy.StaleServed, arm.Proxy.BreakerFastFails, arm.TraceStable, arm.MetricsStable)
		fmt.Printf("%-30s %s\n", "", obsLine(arm.Metrics))
	}

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.Out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", cfg.Out)
	return nil
}

// serveConfig adapts the chaos workload shape for setupServeLedger.
func (c chaosConfig) serveConfig() serveConfig {
	return serveConfig{
		Workers: c.Workers,
		IDs:     c.IDs,
		Batch:   c.Batch,
		Pages:   c.Pages,
		Revoked: c.Revoked,
		Zipf:    c.Zipf,
		Seed:    c.Seed,
	}
}
