package proxy

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"irs/internal/ids"
)

// Per-ledger circuit breaker. A ledger that stops answering must not
// hold a page hostage for a connection timeout per image: after
// breakerThreshold consecutive upstream failures the breaker opens and
// the proxy fails fast into its degradation policy. After
// breakerCooldown one probe request is let through (half-open); a probe
// success closes the breaker, a probe failure re-opens it for another
// cooldown.
const (
	breakerThreshold = 5
	breakerCooldown  = 5 * time.Second
)

// ErrBreakerOpen is the fast-fail surfaced while a ledger's breaker is
// open (or its half-open probe slot is taken).
var ErrBreakerOpen = errors.New("proxy: circuit breaker open")

// BreakerConfig parameterizes the per-ledger breakers. The zero value
// disables them, preserving the always-query behavior.
type BreakerConfig struct {
	// Enabled turns the breakers on.
	Enabled bool
}

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String implements fmt.Stringer, for stats and logs.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("breakerState(%d)", int(s))
	}
}

// breaker is one ledger's circuit state.
type breaker struct {
	mu          sync.Mutex
	state       breakerState
	consecutive int       // consecutive failures while closed
	until       time.Time // open → half-open transition time
	probing     bool      // half-open probe in flight
}

// allow reports whether a request may proceed now. In half-open state
// exactly one in-flight probe is admitted; everyone else fails fast.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Before(b.until) {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record reports an admitted request's outcome.
func (b *breaker) record(ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
		if ok {
			b.state = breakerClosed
			b.consecutive = 0
		} else {
			b.state = breakerOpen
			b.until = now.Add(breakerCooldown)
		}
		return
	}
	if ok {
		b.consecutive = 0
		return
	}
	b.consecutive++
	if b.state == breakerClosed && b.consecutive >= breakerThreshold {
		b.state = breakerOpen
		b.until = now.Add(breakerCooldown)
		b.consecutive = 0
	}
}

// current returns the state for reporting.
func (b *breaker) current() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// breakerFor returns (lazily creating) the ledger's breaker, or nil
// when breakers are disabled.
func (v *Validator) breakerFor(lid ids.LedgerID) *breaker {
	if !v.cfg.Breaker.Enabled {
		return nil
	}
	v.brMu.Lock()
	defer v.brMu.Unlock()
	b, ok := v.breakers[lid]
	if !ok {
		b = &breaker{}
		v.breakers[lid] = b
	}
	return b
}

// BreakerState reports a ledger's current breaker state as a string
// ("closed" when breakers are disabled), for stats endpoints and tests.
func (v *Validator) BreakerState(lid ids.LedgerID) string {
	if b := v.breakerFor(lid); b != nil {
		return b.current().String()
	}
	return breakerClosed.String()
}
