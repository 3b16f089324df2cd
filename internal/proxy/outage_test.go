package proxy

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/wire"
)

// The outage runs drive a closed-loop page-view load (workers
// validating pages of Zipf-drawn ids) through a ledger outage, and
// check what each degradation posture serves. Phases are separated by
// barriers, and the validator's clock moves only there, so which pages
// meet the outage, and what each is answered, is a function of the
// seed alone:
//
//	warm      the ledger is up and every proof is fresh
//	outage    every proof has expired and the ledger refuses all calls
//	long      the outage has outlasted staleTTL
//	recovered the ledger is back, past the breaker's cooldown
//
// Nothing is revoked during a run, so a stale proof still tells the
// claim-time truth: the regime DegradeFailOpenFresh is for.

// outagePosture is one way of facing an unreachable ledger.
type outagePosture struct {
	name    string
	retry   bool // a wire.RetryClient between the validator and the ledger
	breaker bool
	degrade DegradeMode
}

var outagePostures = []outagePosture{
	{"fail-closed", false, false, DegradeFailClosed},
	{"fail-closed+retry", true, false, DegradeFailClosed},
	{"fail-closed+retry+breaker", true, true, DegradeFailClosed},
	{"fail-open-fresh+retry+breaker", true, true, DegradeFailOpenFresh},
}

const (
	phaseWarm = iota
	phaseOutage
	phaseLong
	phaseRecovered
	numPhases
)

// downService refuses every status batch while down, with the pre-send
// transport error a dead ledger produces, which the retry client
// retries.
type downService struct {
	wire.Service
	down atomic.Bool
}

var errLedgerDown = errors.New("ledger down")

func (s *downService) StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	if s.down.Load() {
		return nil, &wire.TransportError{PreSend: true, Err: errLedgerDown}
	}
	return s.Service.StatusBatch(batch)
}

// outagePopulation is a ledger of n records, every tenth revoked at
// birth, with each id's claim-time state.
type outagePopulation struct {
	svc   wire.Service
	ids   []ids.PhotoID
	truth map[ids.PhotoID]ledger.State
}

func newOutagePopulation(t *testing.T, n int) *outagePopulation {
	t.Helper()
	l := newFilterLedger(t, 1)
	recs := records(t, 1, n, func(i int) bool { return i%10 == 0 })
	publish(t, l, recs)
	pop := &outagePopulation{svc: &wire.Loopback{L: l}, truth: make(map[ids.PhotoID]ledger.State, n)}
	for _, r := range recs {
		pop.ids = append(pop.ids, r.ID)
		pop.truth[r.ID] = r.State
	}
	return pop
}

// outageSeed seeds every run: the workers' Zipf draws and the retry
// client's jitter.
const outageSeed = 42

// outageLoad sizes one run.
type outageLoad struct {
	workers int
	batch   int            // ids per page
	pages   [numPhases]int // pages per worker in each phase
}

// outageRun is what one run observed.
type outageRun struct {
	served [numPhases]int // pages answered in full with the truth
	trace  string         // every worker's page ids and served bits
	view   string         // outageMetricsView of the registry
	prom   []byte         // the whole registry, as /metrics renders it
}

// runOutage runs one posture through the four phases once.
func runOutage(t *testing.T, pop *outagePopulation, p outagePosture, load outageLoad) outageRun {
	t.Helper()
	down := &downService{Service: pop.svc}
	var upstream wire.Service = down
	if p.retry {
		upstream = wire.NewRetryClient(down, wire.RetryConfig{
			MaxAttempts:    3,
			AttemptTimeout: -1, // moot against an in-process ledger
			Seed:           outageSeed,
			Sleep:          func(time.Duration) {},
		})
	}
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	// A fresh registry per run on the phase clock: the latency
	// histograms observe zero-width intervals, so two same-seed runs
	// differ only where scheduling legitimately leaks in.
	reg := obs.NewRegistry()
	v := NewValidator(Config{
		CacheCapacity: 2 * len(pop.ids),
		CacheTTL:      time.Minute,
		Degrade:       DegradePolicy{Mode: p.degrade},
		Breaker:       BreakerConfig{Enabled: p.breaker},
		Clock:         func() time.Time { return now },
		Obs:           reg,
	}, func(_ ids.LedgerID, page []ids.PhotoID) ([]*ledger.StatusProof, error) {
		return upstream.StatusBatch(page)
	})

	// Preload every proof: a real proxy has served for hours before its
	// ledger dies, so the outage tests staleness policy, not cold starts.
	for lo := 0; lo < len(pop.ids); lo += load.batch {
		if _, err := v.ValidateBatch(pop.ids[lo:min(lo+load.batch, len(pop.ids))]); err != nil {
			t.Fatalf("%s: preload: %v", p.name, err)
		}
	}

	type worker struct {
		zipf   *rand.Zipf
		trace  []byte
		served [numPhases]int
	}
	workers := make([]*worker, load.workers)
	for w := range workers {
		rng := rand.New(rand.NewSource(outageSeed + int64(w)))
		workers[w] = &worker{zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(pop.ids)-1))}
	}
	runPhase := func(phase int) {
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				page := make([]ids.PhotoID, load.batch)
				for n := 0; n < load.pages[phase]; n++ {
					for i := range page {
						k := w.zipf.Uint64()
						page[i] = pop.ids[k]
						w.trace = binary.BigEndian.AppendUint64(w.trace, k)
					}
					res, err := v.ValidateBatch(page)
					served := err == nil
					for i := range res {
						served = served && res[i].State == pop.truth[page[i]]
					}
					if served {
						w.served[phase]++
						w.trace = append(w.trace, 1)
					} else {
						w.trace = append(w.trace, 0)
					}
				}
			}(w)
		}
		wg.Wait()
	}

	runPhase(phaseWarm)
	now = now.Add(2 * time.Minute) // every cached proof has expired
	down.down.Store(true)
	runPhase(phaseOutage)
	now = now.Add(staleTTL) // and is now past the stale bound too
	runPhase(phaseLong)
	down.down.Store(false)
	now = now.Add(time.Minute) // past the breaker cooldown
	if p.breaker {
		// Spend the half-open probe on the barrier. Left to the workers,
		// which of them won the probe slot would decide which pages
		// fast-failed after the ledger came back.
		if _, err := v.ValidateBatch(pop.ids[:1]); err != nil {
			t.Fatalf("%s: recovery probe: %v", p.name, err)
		}
	}
	runPhase(phaseRecovered)

	var run outageRun
	trace := sha256.New()
	for _, w := range workers {
		trace.Write(w.trace)
		for phase, n := range w.served {
			run.served[phase] += n
		}
	}
	run.trace = fmt.Sprintf("%x", trace.Sum(nil))
	run.view = outageMetricsView(reg.Snapshot())
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	run.prom = prom.Bytes()
	return run
}

// outageMetricsView reduces a snapshot to its scheduling-independent
// part: the validation total plus outcome-group sums. A group pairs
// outcomes whose split depends on goroutine interleaving (cache hit or
// ledger query when two workers race on one expired id; upstream error
// or breaker fast-fail around the trip point) but whose sum the seed
// fixes.
func outageMetricsView(snap []obs.SeriesSnapshot) string {
	val := func(name string, labels ...obs.Label) float64 {
		v, _ := obs.Value(snap, name, labels...)
		return v
	}
	out := func(o string) float64 { return val("irs_proxy_outcomes_total", obs.L("outcome", o)) }
	return fmt.Sprintf("total=%.0f served=%.0f failed=%.0f stale=%.0f filter=%.0f",
		val("irs_proxy_validations_total"),
		out("cache_hit")+out("ledger_query"),
		out("unavailable")+out("breaker_fast_fail"),
		out("stale_served"),
		out("filter_miss"))
}

// TestOutagePostures runs each posture twice through a seeded outage.
// A fresh proof serves every page before and after the outage. During
// it, only fail-open-fresh serves, from stale proofs, and only until
// the outage outlasts staleTTL; fail-closed blanks every page with or
// without retries and a breaker. The same seed repeats the request and
// outcome trace and the stable metric view.
func TestOutagePostures(t *testing.T) {
	pop := newOutagePopulation(t, 256)
	load := outageLoad{workers: 2, batch: 16, pages: [numPhases]int{6, 4, 2, 6}}
	for _, p := range outagePostures {
		t.Run(p.name, func(t *testing.T) {
			first := runOutage(t, pop, p, load)
			for phase, pages := range load.pages {
				want := pages * load.workers
				if phase == phaseLong || phase == phaseOutage && p.degrade != DegradeFailOpenFresh {
					want = 0
				}
				if got := first.served[phase]; got != want {
					t.Errorf("phase %d: %d pages served, want %d", phase, got, want)
				}
			}
			second := runOutage(t, pop, p, load)
			if first.trace != second.trace {
				t.Errorf("trace diverged between two same-seed runs: %s vs %s", first.trace, second.trace)
			}
			if first.view != second.view {
				t.Errorf("stable metric view diverged:\n  %s\n  %s", first.view, second.view)
			}
		})
	}
}

// TestOutageObsDeterminism is the fault-replay check of the
// observability layer: two same-seed runs of the fail-open-fresh
// posture repeat the trace and the stable metric view at every worker
// count, and, since the latency histograms observe the phase clock, a
// one-worker run repeats its whole registry byte for byte.
func TestOutageObsDeterminism(t *testing.T) {
	pop := newOutagePopulation(t, 128)
	p := outagePostures[len(outagePostures)-1]
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			load := outageLoad{workers: workers, batch: 8, pages: [numPhases]int{4, 3, 1, 4}}
			first := runOutage(t, pop, p, load)
			second := runOutage(t, pop, p, load)
			if first.trace != second.trace {
				t.Fatalf("trace diverged: %s vs %s", first.trace, second.trace)
			}
			if first.view != second.view {
				t.Fatalf("stable metric view diverged:\n  %s\n  %s", first.view, second.view)
			}
			if workers == 1 && !bytes.Equal(first.prom, second.prom) {
				t.Fatalf("one-worker registry not byte-identical:\n--- first ---\n%s\n--- second ---\n%s", first.prom, second.prom)
			}
		})
	}
}
