// Package netsim provides the deterministic network model under the
// browser and proxy experiments.
//
// The paper's latency arguments (§4.3) are about wall-clock interactions
// the test environment cannot reproduce against the real web: ledger
// round trips "under 100ms, as in [12, 26]", page loads from the HTTP
// Archive distribution, and the 250 ms pinterest.com overlap window. The
// experiments therefore run on virtual time: a discrete-event scheduler
// (Scheduler) advances a simulated clock from event to event, and latency
// distributions (Dist) supply reproducible samples. Nothing sleeps; a
// simulated second costs microseconds, so sweeps over thousands of page
// loads are cheap and exactly repeatable.
package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Dist is a latency distribution.
type Dist interface {
	// Sample draws one latency using the provided source.
	Sample(rng *rand.Rand) time.Duration
	// Mean returns the distribution mean, used in reports.
	Mean() time.Duration
	fmt.Stringer
}

// Fixed is a constant latency.
type Fixed time.Duration

// Sample implements Dist.
func (f Fixed) Sample(*rand.Rand) time.Duration { return time.Duration(f) }

// Mean implements Dist.
func (f Fixed) Mean() time.Duration { return time.Duration(f) }

// String implements fmt.Stringer.
func (f Fixed) String() string { return fmt.Sprintf("fixed(%v)", time.Duration(f)) }

// Uniform is a uniform latency on [Min, Max].
type Uniform struct {
	Min, Max time.Duration
}

// Sample implements Dist.
func (u Uniform) Sample(rng *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)))
}

// Mean implements Dist.
func (u Uniform) Mean() time.Duration { return (u.Min + u.Max) / 2 }

// String implements fmt.Stringer.
func (u Uniform) String() string { return fmt.Sprintf("uniform(%v,%v)", u.Min, u.Max) }

// LogNormal is a heavy-tailed latency with the given median and log-space
// sigma — the conventional model for wide-area RTTs and page resource
// fetches.
type LogNormal struct {
	Median time.Duration
	Sigma  float64
}

// Sample implements Dist.
func (l LogNormal) Sample(rng *rand.Rand) time.Duration {
	mu := math.Log(float64(l.Median))
	v := math.Exp(mu + l.Sigma*rng.NormFloat64())
	return time.Duration(v)
}

// Mean implements Dist. For a lognormal the mean is median·e^{σ²/2}.
func (l LogNormal) Mean() time.Duration {
	return time.Duration(float64(l.Median) * math.Exp(l.Sigma*l.Sigma/2))
}

// String implements fmt.Stringer.
func (l LogNormal) String() string {
	return fmt.Sprintf("lognormal(med=%v,σ=%.2f)", l.Median, l.Sigma)
}

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // FIFO tie-break for determinism
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)         { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)           { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any             { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) isEmpty() bool         { return len(h) == 0 }
func (h eventHeap) nextAt() time.Duration { return h[0].at }

// Scheduler is a single-threaded discrete-event simulator. Time is a
// Duration since simulation start. Not safe for concurrent use; all
// callbacks run on the caller's goroutine inside RunUntil.
type Scheduler struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	rng    *rand.Rand
}

// NewScheduler creates a scheduler with a deterministic random source.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// At schedules fn at an absolute virtual time; times in the past run at
// the current time.
func (s *Scheduler) At(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn after a delay from now.
func (s *Scheduler) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// RunUntil executes events with time ≤ limit; remaining events stay
// queued. Returns the virtual time reached (limit if events remain).
func (s *Scheduler) RunUntil(limit time.Duration) time.Duration {
	for !s.events.isEmpty() && s.events.nextAt() <= limit {
		e := heap.Pop(&s.events).(*event)
		s.now = e.at
		e.fn()
	}
	if s.now < limit {
		s.now = limit
	}
	return s.now
}

// Pending reports the number of queued events.
func (s *Scheduler) Pending() int { return len(s.events) }

// Link models a request/response channel with a latency distribution and
// optional limited concurrency (e.g. a browser's per-host connection
// pool). Zero MaxInFlight means unlimited.
type Link struct {
	sched       *Scheduler
	dist        Dist
	maxInFlight int
	inFlight    int
	queue       []func()
	// Requests counts total requests issued, for load accounting.
	Requests uint64
}

// NewLink creates a link on the given scheduler.
func NewLink(s *Scheduler, dist Dist, maxInFlight int) *Link {
	return &Link{sched: s, dist: dist, maxInFlight: maxInFlight}
}

// Request issues a request now; done runs when the response arrives.
func (l *Link) Request(done func()) {
	l.Requests++
	start := func() {
		l.inFlight++
		d := l.dist.Sample(l.sched.rng)
		l.sched.After(d, func() {
			l.inFlight--
			done()
			l.drain()
		})
	}
	if l.maxInFlight > 0 && l.inFlight >= l.maxInFlight {
		l.queue = append(l.queue, start)
		return
	}
	start()
}

func (l *Link) drain() {
	for len(l.queue) > 0 && (l.maxInFlight == 0 || l.inFlight < l.maxInFlight) {
		next := l.queue[0]
		l.queue = l.queue[1:]
		next()
	}
}

// Quantile returns the q-quantile (0..1) of a duration sample set,
// sorting a copy. Reports use this for the Almanac-style tables.
//
// The estimator is nearest-rank: the smallest sample whose cumulative
// frequency is ≥ q. Floor-truncating the index (the previous behavior)
// understates upper quantiles on small samples — p99 of ten samples
// must be the maximum, not the ninth value.
func Quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	cp := append([]time.Duration(nil), samples...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(math.Ceil(q*float64(len(cp)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}
