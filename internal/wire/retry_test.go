package wire

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
)

// scriptedService fails each call with the scripted errors in order,
// then succeeds forever. Only the methods the tests drive are scripted;
// everything else delegates to the embedded zero Loopback (and would
// panic if reached, which is the point).
type scriptedService struct {
	Loopback
	errs    []error // consumed front to back; nil entry = success
	calls   int
	claimed int
}

func (s *scriptedService) next() error {
	if s.calls < len(s.errs) {
		err := s.errs[s.calls]
		s.calls++
		return err
	}
	s.calls++
	return nil
}

func (s *scriptedService) Status(id ids.PhotoID) (*ledger.StatusProof, error) {
	if err := s.next(); err != nil {
		return nil, err
	}
	return &ledger.StatusProof{ID: id, State: ledger.StateActive}, nil
}

func (s *scriptedService) Claim(req *ClaimRequest) (ledger.Receipt, error) {
	if err := s.next(); err != nil {
		return ledger.Receipt{}, err
	}
	s.claimed++
	return ledger.Receipt{}, nil
}

// noSleep counts backoffs instead of sleeping.
func noSleep(sleeps *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *sleeps = append(*sleeps, d) }
}

func testID(t *testing.T) ids.PhotoID {
	t.Helper()
	id, err := ids.New(1)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestRetryIdempotentRetriesTransientFailure(t *testing.T) {
	transient := &TransportError{Err: errors.New("conn reset")}
	svc := &scriptedService{errs: []error{transient, transient}}
	var sleeps []time.Duration
	rc := NewRetryClient(svc, RetryConfig{Sleep: noSleep(&sleeps)})
	if _, err := rc.Status(testID(t)); err != nil {
		t.Fatalf("status after two transient failures: %v", err)
	}
	if svc.calls != 3 {
		t.Errorf("attempts %d, want 3", svc.calls)
	}
	if len(sleeps) != 2 {
		t.Errorf("backoffs %d, want 2", len(sleeps))
	}
	st := rc.stats()
	if st.Retries != 2 || st.Calls != 1 || st.Attempts != 3 {
		t.Errorf("stats %+v", st)
	}
}

func TestRetryNonIdempotentNotRetriedPostSend(t *testing.T) {
	// A post-send transport failure: the claim may have been recorded.
	postSend := &TransportError{PreSend: false, Err: errors.New("reset mid-response")}
	svc := &scriptedService{errs: []error{postSend}}
	var sleeps []time.Duration
	rc := NewRetryClient(svc, RetryConfig{Sleep: noSleep(&sleeps)})
	if _, err := rc.Claim(&ClaimRequest{}); err == nil {
		t.Fatal("post-send claim failure swallowed")
	}
	if svc.calls != 1 {
		t.Errorf("claim attempted %d times, want exactly 1 (no replay risk)", svc.calls)
	}
}

func TestRetryNonIdempotentRetriedPreSend(t *testing.T) {
	preSend := &TransportError{PreSend: true, Err: errors.New("connection refused")}
	svc := &scriptedService{errs: []error{preSend, preSend}}
	var sleeps []time.Duration
	rc := NewRetryClient(svc, RetryConfig{Sleep: noSleep(&sleeps)})
	if _, err := rc.Claim(&ClaimRequest{}); err != nil {
		t.Fatalf("claim after pre-send failures: %v", err)
	}
	if svc.claimed != 1 || svc.calls != 3 {
		t.Errorf("claimed=%d calls=%d, want 1/3", svc.claimed, svc.calls)
	}
}

func TestRetryProtocolErrorsNotRetried(t *testing.T) {
	svc := &scriptedService{errs: []error{&Error{Code: 404, Message: "no such claim"}}}
	rc := NewRetryClient(svc, RetryConfig{Sleep: func(time.Duration) {}})
	if _, err := rc.Status(testID(t)); ErrStatus(err) != 404 {
		t.Fatalf("got %v, want the 404 through unretried", err)
	}
	if svc.calls != 1 {
		t.Errorf("definitive answer retried: %d calls", svc.calls)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	down := &TransportError{Err: errors.New("down")}
	svc := &scriptedService{}
	rc := NewRetryClient(svc, RetryConfig{MaxAttempts: 4, Sleep: func(time.Duration) {}})
	id := testID(t)
	// script makes the next calls fail with errs, then succeed.
	script := func(errs ...error) {
		for len(svc.errs) < svc.calls {
			svc.errs = append(svc.errs, nil)
		}
		svc.errs = append(svc.errs[:svc.calls], errs...)
	}
	// drain fails calls until one is denied its retry, and returns the
	// retries spent on the way.
	drain := func() uint64 {
		t.Helper()
		before := rc.stats().Retries
		for {
			script(down, down, down, down)
			start := svc.calls
			if _, err := rc.Status(id); err == nil {
				t.Fatal("down service succeeded")
			}
			if svc.calls-start == 1 {
				return rc.stats().Retries - before
			}
		}
	}
	succeed := func(n int) {
		t.Helper()
		script()
		for i := 0; i < n; i++ {
			if _, err := rc.Status(id); err != nil {
				t.Fatalf("recovery call: %v", err)
			}
		}
	}

	// The reservoir starts full: a down service gets exactly the cap in
	// retries, then every call fails after a single attempt.
	if got := drain(); got != retryBudgetCap {
		t.Fatalf("full budget allowed %d retries, want %d", got, retryBudgetCap)
	}
	if rc.stats().BudgetDenied == 0 {
		t.Error("budget denial not counted")
	}
	// One and a half tokens' worth of successes earn one retry.
	succeed(int(1.5 / retryBudgetRefill))
	if got := drain(); got != 1 {
		t.Errorf("refilled budget allowed %d retries, want 1", got)
	}
	// Refill stops at the cap, however long the service stays up.
	succeed(100 * retryBudgetCap / retryBudgetRefill)
	if got := drain(); got != retryBudgetCap {
		t.Errorf("after a long recovery the budget allowed %d retries, want the cap %d", got, retryBudgetCap)
	}
}

func TestRetryBackoffSeededAndCapped(t *testing.T) {
	down := &TransportError{Err: errors.New("down")}
	run := func(seed int64) []time.Duration {
		errs := make([]error, 10)
		for i := range errs {
			errs[i] = down
		}
		var sleeps []time.Duration
		rc := NewRetryClient(&scriptedService{errs: errs}, RetryConfig{
			MaxAttempts: 6,
			BaseBackoff: 10 * time.Millisecond,
			MaxBackoff:  40 * time.Millisecond,
			Seed:        seed,
			Sleep:       noSleep(&sleeps),
		})
		_, _ = rc.Status(ids.PhotoID{})
		return sleeps
	}
	a, b := run(1), run(1)
	if len(a) != 5 {
		t.Fatalf("backoffs %d, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("backoff %d differs across same-seed runs: %v vs %v", i, a[i], b[i])
		}
		if a[i] > 40*time.Millisecond {
			t.Errorf("backoff %d = %v exceeds cap", i, a[i])
		}
		if a[i] < 5*time.Millisecond {
			t.Errorf("backoff %d = %v below half the base", i, a[i])
		}
	}
	// Growth up to the cap: later backoffs jitter within [cap/2, cap].
	last := a[len(a)-1]
	if last < 20*time.Millisecond {
		t.Errorf("capped backoff %v fell below cap/2", last)
	}
}

// TestRetryAttemptDeadline drives a real Client against a hung server:
// the per-attempt deadline must bound every attempt, so the whole call
// completes orders of magnitude sooner than the old hardcoded 30s
// client timeout would allow.
func TestRetryAttemptDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // as in TestClientConfigurableTimeout
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()

	c := NewClient(srv.URL, "")
	rc := NewRetryClient(c, RetryConfig{
		MaxAttempts:    2,
		AttemptTimeout: 50 * time.Millisecond,
		Sleep:          func(time.Duration) {},
	})
	start := time.Now()
	_, err := rc.Status(testID(t))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("hung server produced a success")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("call took %v; per-attempt deadline not enforced", elapsed)
	}
	if rc.stats().Attempts != 2 {
		t.Errorf("attempts %d, want 2 (deadline errors on idempotent calls retry)", rc.stats().Attempts)
	}
}

// TestClientConfigurableTimeout pins that the hop's per-exchange
// deadline (DefaultTimeout, lowered here after construction) ends an
// exchange with a hung server.
func TestClientConfigurableTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Only a fully read body lets the server see the client hang up.
		io.Copy(io.Discard, r.Body)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	c := NewClient(srv.URL, "")
	c.hop.timeout = 40 * time.Millisecond
	start := time.Now()
	if _, err := c.Status(testID(t)); err == nil {
		t.Fatal("hung server produced a success")
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("timed out after %v, want ~40ms", e)
	}
}
