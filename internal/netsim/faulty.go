package netsim

import (
	"errors"
	"fmt"
	"math/rand"
)

// Fault-injection layer: a Faulty wrapper turns a healthy Link into one
// that loses requests, the failure a ledger-backed serving path must
// degrade through rather than blank pages (fail closed) or resurrect
// revoked photos (fail open). Each request takes one draw from a
// dedicated seeded source in request order, so an experiment replays
// the same losses from its seed alone: same seed, same requests ⇒ the
// same requests are lost.

// ErrLost is the failure surfaced for a lost request.
var ErrLost = errors.New("netsim: request lost")

// FaultConfig parameterizes a Faulty link.
type FaultConfig struct {
	// Seed feeds the wrapper's own random source; fault decisions never
	// perturb the underlying scheduler's stream, so adding faults leaves
	// the healthy traffic's latency draws untouched.
	Seed int64
	// LossProb is the per-request independent loss probability.
	LossProb float64
}

// Faulty wraps a Link with deterministic request loss. Like the Link it
// wraps, it is single-threaded under the scheduler.
type Faulty struct {
	link *Link
	cfg  FaultConfig
	rng  *rand.Rand
}

// NewFaulty wraps link. The wrapper draws from its own source seeded by
// cfg.Seed so its losses replay independently of link traffic.
func NewFaulty(link *Link, cfg FaultConfig) (*Faulty, error) {
	if cfg.LossProb < 0 || cfg.LossProb > 1 {
		return nil, fmt.Errorf("netsim: loss probability %v outside [0,1]", cfg.LossProb)
	}
	return &Faulty{link: link, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Request issues a request now; done runs exactly once with the
// request's fate. A lost request fails at once (connection refused);
// any other is delivered after the link's latency. The loss draw is
// taken in issue order, so the fates depend only on the seed and the
// request sequence, never on scheduler interleaving.
func (f *Faulty) Request(done func(err error)) {
	if f.rng.Float64() < f.cfg.LossProb {
		f.link.sched.After(0, func() { done(ErrLost) })
		return
	}
	f.link.Request(func() { done(nil) })
}
