package wire

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
)

// RetryClient decorates a Service with bounded, idempotency-aware
// retries. The serving path (proxy → ledger) needs exactly three
// properties from its transport under partial failure: a flaky call
// gets a second chance (capped exponential backoff with seeded
// jitter), a down ledger cannot consume unbounded work (per-attempt
// deadline plus a retry budget shared across calls), and a
// non-idempotent verb is never replayed after it may have reached the
// server — Status/StatusBatch/Seq/Keys/Filter/FilterSync retry on any
// transport failure, Claim/Apply/PermanentRevoke retry only on
// pre-send failures (dial class), where the request provably never
// left the client.
type RetryClient struct {
	svc Service
	cfg RetryConfig

	// mu guards the jitter source and the retry budget.
	mu     sync.Mutex
	rng    *rand.Rand
	budget float64

	stats RetryStats
}

// RetryConfig parameterizes a RetryClient. Zero values pick defaults
// noted per field.
type RetryConfig struct {
	// MaxAttempts bounds total attempts per call, first included;
	// 0 means 4.
	MaxAttempts int
	// AttemptTimeout is the per-attempt deadline, enforced when the
	// wrapped service supports context propagation (Client does);
	// 0 means 2s, negative disables.
	AttemptTimeout time.Duration
	// BaseBackoff is the first retry's backoff before jitter; 0 means
	// 50ms. Attempt n backs off Base<<n, capped at MaxBackoff, then
	// jittered to [d/2, d].
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means 2s.
	MaxBackoff time.Duration
	// Seed feeds the jitter source, making backoff sequences
	// reproducible in experiments.
	Seed int64
	// Sleep is the backoff sleeper; nil means time.Sleep. Tests inject
	// a fake clock here.
	Sleep func(time.Duration)
}

// The retry budget is a token reservoir shared by every call: each
// retry spends one token, each successful call refills
// retryBudgetRefill up to retryBudgetCap, and an empty reservoir turns
// retries off until successes refill it — the standard guard against
// retry storms amplifying an outage.
const (
	retryBudgetCap    = 10
	retryBudgetRefill = 0.1
)

// RetryStats counts decorator outcomes.
type RetryStats struct {
	Calls        atomic.Uint64
	Attempts     atomic.Uint64
	Retries      atomic.Uint64
	BudgetDenied atomic.Uint64
}

// RetryStatsSnapshot is a plain-value copy.
type RetryStatsSnapshot struct {
	Calls        uint64 `json:"calls"`
	Attempts     uint64 `json:"attempts"`
	Retries      uint64 `json:"retries"`
	BudgetDenied uint64 `json:"budget_denied"`
}

// ContextService is implemented by transports whose calls can be
// scoped to a context; RetryClient uses it to enforce per-attempt
// deadlines. Client implements it; Loopback does not need to (its
// calls cannot hang on a network).
type ContextService interface {
	Service
	WithContext(ctx context.Context) Service
}

var _ ContextService = (*Client)(nil)

// NewRetryClient decorates svc.
func NewRetryClient(svc Service, cfg RetryConfig) *RetryClient {
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = 2 * time.Second
	}
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &RetryClient{
		svc:    svc,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		budget: retryBudgetCap,
	}
}

// Stats returns a snapshot of the decorator's counters.
func (r *RetryClient) Stats() RetryStatsSnapshot {
	return RetryStatsSnapshot{
		Calls:        r.stats.Calls.Load(),
		Attempts:     r.stats.Attempts.Load(),
		Retries:      r.stats.Retries.Load(),
		BudgetDenied: r.stats.BudgetDenied.Load(),
	}
}

// Retryable reports whether err may be retried given the verb's
// idempotency. Exposed so degradation layers classify failures the
// same way the retry layer does.
func Retryable(err error, idempotent bool) bool {
	if errors.Is(err, context.Canceled) {
		return false // the caller gave up; honor it
	}
	var te *TransportError
	if errors.As(err, &te) {
		return idempotent || te.PreSend
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// The request may have reached the server before the deadline.
		return idempotent
	}
	var we *Error
	if errors.As(err, &we) {
		// 5xx answers are server-side trouble an idempotent call may
		// retry; anything else is a definitive protocol answer.
		return idempotent && we.Code >= 500
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return idempotent
	}
	return false
}

// spend takes one retry token; false means the budget is exhausted.
func (r *RetryClient) spend() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.budget < 1 {
		return false
	}
	r.budget--
	return true
}

// refill credits a successful call.
func (r *RetryClient) refill() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.budget = min(r.budget+retryBudgetRefill, retryBudgetCap)
}

// backoff computes the jittered delay before retry number n (0-based).
func (r *RetryClient) backoff(n int) time.Duration {
	d := r.cfg.BaseBackoff << uint(n)
	if d <= 0 || d > r.cfg.MaxBackoff {
		d = r.cfg.MaxBackoff
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	half := d / 2
	return half + time.Duration(r.rng.Int63n(int64(half)+1))
}

// attempt returns the service scoped to one attempt and its cleanup.
func (r *RetryClient) attempt() (Service, context.CancelFunc) {
	cs, ok := r.svc.(ContextService)
	if !ok || r.cfg.AttemptTimeout <= 0 {
		return r.svc, func() {}
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.AttemptTimeout)
	return cs.WithContext(ctx), cancel
}

// do runs call with the retry policy.
func (r *RetryClient) do(idempotent bool, call func(Service) error) error {
	r.stats.Calls.Add(1)
	for n := 0; ; n++ {
		r.stats.Attempts.Add(1)
		svc, cancel := r.attempt()
		err := call(svc)
		cancel()
		if err == nil {
			r.refill()
			return nil
		}
		if n+1 >= r.cfg.MaxAttempts || !Retryable(err, idempotent) {
			return err
		}
		if !r.spend() {
			r.stats.BudgetDenied.Add(1)
			return err
		}
		r.stats.Retries.Add(1)
		r.cfg.Sleep(r.backoff(n))
	}
}

// Claim implements Service; retried only on pre-send failure.
func (r *RetryClient) Claim(req *ClaimRequest) (ledger.Receipt, error) {
	var out ledger.Receipt
	err := r.do(false, func(s Service) error {
		var e error
		out, e = s.Claim(req)
		return e
	})
	return out, err
}

// Apply implements Service; retried only on pre-send failure.
func (r *RetryClient) Apply(id ids.PhotoID, op ledger.Op, seq uint64, sig []byte) error {
	return r.do(false, func(s Service) error { return s.Apply(id, op, seq, sig) })
}

// Seq implements Service.
func (r *RetryClient) Seq(id ids.PhotoID) (uint64, error) {
	var out uint64
	err := r.do(true, func(s Service) error {
		var e error
		out, e = s.Seq(id)
		return e
	})
	return out, err
}

// Status implements Service.
func (r *RetryClient) Status(id ids.PhotoID) (*ledger.StatusProof, error) {
	var out *ledger.StatusProof
	err := r.do(true, func(s Service) error {
		var e error
		out, e = s.Status(id)
		return e
	})
	return out, err
}

// StatusBatch implements Service.
func (r *RetryClient) StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	var out []*ledger.StatusProof
	err := r.do(true, func(s Service) error {
		var e error
		out, e = s.StatusBatch(batch)
		return e
	})
	return out, err
}

// Keys implements Service.
func (r *RetryClient) Keys() (*KeysResponse, error) {
	var out *KeysResponse
	err := r.do(true, func(s Service) error {
		var e error
		out, e = s.Keys()
		return e
	})
	return out, err
}

// FilterSync implements Service; idempotent, retried on any transport
// failure.
func (r *RetryClient) FilterSync(from uint64, baseHash []byte) (payload []byte, latest uint64, err error) {
	err = r.do(true, func(s Service) error {
		var e error
		payload, latest, e = s.FilterSync(from, baseHash)
		return e
	})
	return payload, latest, err
}

// PermanentRevoke implements Service; retried only on pre-send failure.
func (r *RetryClient) PermanentRevoke(id ids.PhotoID) error {
	return r.do(false, func(s Service) error { return s.PermanentRevoke(id) })
}

var _ Service = (*RetryClient)(nil)
