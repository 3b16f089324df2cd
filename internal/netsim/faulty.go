package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Fault-injection layer: a Faulty wrapper turns a healthy Link into one
// that loses requests, spikes latency, and goes dark on schedule — the
// failure modes a ledger-backed serving path must degrade through
// rather than blank pages (fail closed) or resurrect revoked photos
// (fail open). Everything is driven by a dedicated seeded source in
// request order, so an experiment replays a byte-identical failure
// trace from its seed alone: same seed, same requests ⇒ the same
// requests are lost, spiked, and blackholed at the same virtual times.

// Fault outcomes, in trace order of precedence: an outage masks loss,
// loss masks spikes.
const (
	// OutcomeOK is a delivered request (possibly spiked).
	OutcomeOK = iota
	// OutcomeOutage is a request issued inside a scheduled outage
	// window; it fails after the configured failure latency.
	OutcomeOutage
	// OutcomeLost is an independently dropped request.
	OutcomeLost
)

// ErrOutage is the failure surfaced for requests issued during a
// scheduled outage window.
var ErrOutage = errors.New("netsim: link outage")

// ErrLost is the failure surfaced for a lost request.
var ErrLost = errors.New("netsim: request lost")

// Outage is a half-open window [Start, End) of virtual time during
// which every request on the link fails.
type Outage struct {
	Start, End time.Duration
}

// FaultConfig parameterizes a Faulty link.
type FaultConfig struct {
	// Seed feeds the wrapper's own random source; fault decisions never
	// perturb the underlying scheduler's stream, so adding faults leaves
	// the healthy traffic's latency draws untouched.
	Seed int64
	// LossProb is the per-request independent loss probability.
	LossProb float64
	// SpikeProb is the per-request probability of an added latency
	// spike.
	SpikeProb float64
	// Spike is the extra latency drawn for spiked requests; nil with
	// SpikeProb > 0 is a configuration error caught at construction.
	Spike Dist
	// FailLatency is how long a failed request takes to surface to the
	// caller — the connection-timeout analog. Nil means failures
	// surface immediately (connection refused).
	FailLatency Dist
	// Outages are scheduled windows during which all requests fail.
	Outages []Outage
}

// FaultEvent is one request's fate, recorded in issue order.
type FaultEvent struct {
	// Seq numbers requests from 0 in issue order.
	Seq uint64
	// At is the virtual time the request was issued.
	At time.Duration
	// Outcome is OutcomeOK, OutcomeOutage, or OutcomeLost.
	Outcome int
	// Spike is the extra latency added (OutcomeOK only).
	Spike time.Duration
}

// String renders one trace line; a whole trace joined with newlines is
// the byte-comparable replay artifact.
func (e FaultEvent) String() string {
	o := "ok"
	switch e.Outcome {
	case OutcomeOutage:
		o = "outage"
	case OutcomeLost:
		o = "lost"
	}
	return fmt.Sprintf("%d@%v %s +%v", e.Seq, e.At, o, e.Spike)
}

// Faulty wraps a Link with deterministic fault injection. Like the
// Link it wraps, it is single-threaded under the scheduler.
type Faulty struct {
	link *Link
	cfg  FaultConfig
	rng  *rand.Rand
	seq  uint64

	// Counters, for reports.
	Issued, OK, Lost, OutageFailed, Spiked uint64

	trace []FaultEvent
}

// NewFaulty wraps link. The wrapper draws from its own source seeded by
// cfg.Seed so fault schedules replay independently of link traffic.
func NewFaulty(link *Link, cfg FaultConfig) (*Faulty, error) {
	if cfg.LossProb < 0 || cfg.LossProb > 1 || cfg.SpikeProb < 0 || cfg.SpikeProb > 1 {
		return nil, fmt.Errorf("netsim: probabilities must be in [0,1]")
	}
	if cfg.SpikeProb > 0 && cfg.Spike == nil {
		return nil, fmt.Errorf("netsim: SpikeProb set without a Spike distribution")
	}
	for _, o := range cfg.Outages {
		if o.End < o.Start {
			return nil, fmt.Errorf("netsim: outage window end %v before start %v", o.End, o.Start)
		}
	}
	return &Faulty{link: link, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// inOutage reports whether t falls inside a scheduled window.
func (f *Faulty) inOutage(t time.Duration) bool {
	for _, o := range f.cfg.Outages {
		if t >= o.Start && t < o.End {
			return true
		}
	}
	return false
}

// failAfter surfaces err to done after the configured failure latency.
func (f *Faulty) failAfter(done func(error), err error) {
	if f.cfg.FailLatency == nil {
		f.link.sched.After(0, func() { done(err) })
		return
	}
	f.link.sched.After(f.cfg.FailLatency.Sample(f.rng), func() { done(err) })
}

// Request issues a request now; done runs exactly once with the
// request's fate. Fault decisions are drawn in issue order — loss roll
// then spike roll per request — so the schedule depends only on the
// seed and the request sequence, never on scheduler interleaving.
func (f *Faulty) Request(done func(err error)) {
	now := f.link.sched.Now()
	ev := FaultEvent{Seq: f.seq, At: now}
	f.seq++
	f.Issued++

	// Draw both rolls unconditionally so each request consumes a fixed
	// number of random values: inserting an outage window does not shift
	// the loss/spike fate of every later request.
	lossRoll := f.rng.Float64()
	spikeRoll := f.rng.Float64()
	var spike time.Duration
	if f.cfg.SpikeProb > 0 && spikeRoll < f.cfg.SpikeProb {
		spike = f.cfg.Spike.Sample(f.rng)
	}

	switch {
	case f.inOutage(now):
		ev.Outcome = OutcomeOutage
		f.OutageFailed++
		f.trace = append(f.trace, ev)
		f.failAfter(done, ErrOutage)
	case f.cfg.LossProb > 0 && lossRoll < f.cfg.LossProb:
		ev.Outcome = OutcomeLost
		f.Lost++
		f.trace = append(f.trace, ev)
		f.failAfter(done, ErrLost)
	default:
		ev.Outcome = OutcomeOK
		ev.Spike = spike
		if spike > 0 {
			f.Spiked++
		}
		f.OK++
		f.trace = append(f.trace, ev)
		f.link.Request(func() {
			if spike > 0 {
				f.link.sched.After(spike, func() { done(nil) })
				return
			}
			done(nil)
		})
	}
}

// TraceString renders the whole trace, one event per line — the
// byte-identical replay check two runs with the same seed must pass.
func (f *Faulty) TraceString() string {
	var sb strings.Builder
	for _, e := range f.trace {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
