package proxy

// Per-client fairness / admission control.
//
// The adversarial suite's flooding arm shows what happens without it:
// one client issuing cache-busting traffic saturates the upstream
// budget and the benign clients' requests fail or stall behind it.
// Admission is the front door that prevents that — a token bucket per
// client key plus one shared overflow pool:
//
//   - Every client refills at Rate tokens/sec up to Burst. A request
//     of cost n (n identifiers) drains n tokens.
//   - Shortfall borrows from the shared overflow pool, so bursty but
//     honest clients ride out pages bigger than their bucket as long
//     as the proxy as a whole has headroom. A flooder exhausts its own
//     bucket and the pool's sustained rate, then is denied; the other
//     clients' private buckets are untouched.
//   - At most admissionMaxClients buckets are tracked. When the table
//     is full, unseen clients are served from the overflow pool only —
//     a client-key-churn attack cannot grow memory without bound, and
//     it cannot mint fresh Burst allowances either.
//
// Accounting is integer microtokens with floor rounding and explicit
// saturation, so the bucket can never go negative and a request is
// never admitted on tokens that were not actually available (the fuzz
// targets in admission_test.go hammer exactly those two claims). A
// denied request restores whatever it drained — denial costs the
// client nothing, so a flooder cannot starve itself into also
// draining the shared pool.
//
// Admission happens before Validate's outcome accounting: a denied
// request never increments irs_proxy_validations_total, so the
// six-outcome conservation invariant is untouched. Denials land in
// their own irs_proxy_admission_total{decision="denied"} series.

import (
	"math/bits"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"irs/internal/obs"
)

// AdmissionConfig parameterizes the validator's per-client admission
// control. The zero value disables it (every request admitted, zero
// hot-path cost beyond a nil check).
type AdmissionConfig struct {
	// Enabled turns admission on.
	Enabled bool
	// Rate is each client's sustained admission rate in tokens (≈
	// identifiers) per second; 0 means 100. Clamped to [0.001, 1e6].
	Rate float64
	// Burst is each client's bucket capacity in tokens; 0 means
	// 2×Rate. Clamped to [1, 1e6].
	Burst float64
	// OverflowRate is the shared pool's refill rate in tokens per
	// second; 0 means Rate.
	OverflowRate float64
	// OverflowBurst is the shared pool's capacity; 0 means 4×Burst.
	OverflowBurst float64
}

// admissionMaxClients bounds the tracked-bucket table.
const admissionMaxClients = 4096

// microToken is the fixed-point scale: one token = 1e6 microtokens.
// All bucket arithmetic is integer microtokens with floor rounding, so
// rounding error always favors denial, never admission.
const microToken = 1_000_000

// admissionStripes is the bucket-table stripe count (power of two).
const admissionStripes = 16

// tbucket is one token bucket. Guarded by its owning stripe's (or the
// overflow pool's) mutex.
type tbucket struct {
	tok  int64 // microtokens, 0..burst
	last time.Time
}

// scaledTokens returns floor(elapsedNs × rateMicro / 1e9) saturated at
// cap — the exact integer microtoken yield of an elapsed interval.
// 128-bit intermediate, so no overflow for any int64 inputs.
func scaledTokens(elapsedNs, rateMicro, cap int64) int64 {
	if elapsedNs <= 0 || rateMicro <= 0 {
		return 0
	}
	const nsPerSec = 1_000_000_000
	hi, lo := bits.Mul64(uint64(elapsedNs), uint64(rateMicro))
	if hi >= nsPerSec {
		// Quotient would exceed 2⁶⁴/1e9·1e9 = 2⁶⁴ microtokens: beyond
		// any cap.
		return cap
	}
	q, _ := bits.Div64(hi, lo, nsPerSec)
	if q > uint64(cap) {
		return cap
	}
	return int64(q)
}

// refill advances the bucket to now. Never exceeds burst, never goes
// backward (a clock step backward is ignored, not refunded).
func (b *tbucket) refill(now time.Time, rateMicro, burstMicro int64) {
	el := now.Sub(b.last)
	if el <= 0 {
		return
	}
	b.last = now
	b.tok += scaledTokens(int64(el), rateMicro, burstMicro)
	if b.tok > burstMicro {
		b.tok = burstMicro
	}
}

type admStripe struct {
	mu sync.Mutex
	m  map[string]*tbucket
}

// admission is the validator's admission-control state; nil means
// disabled.
type admission struct {
	rateMicro      int64
	burstMicro     int64
	ovRateMicro    int64
	ovBurstMicro   int64
	maxClients     int64 // admissionMaxClients; tests lower it
	clock          func() time.Time
	clientCount    atomic.Int64
	stripes        [admissionStripes]admStripe
	ovMu           sync.Mutex
	overflow       tbucket
	admitted       *obs.Counter
	denied         *obs.Counter
	borrowed       *obs.Counter
	clientsTracked *obs.Gauge
}

// clampTokens bounds a token quantity to the supported range.
func clampTokens(v, def, lo, hi float64) float64 {
	if v == 0 {
		v = def
	}
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

func newAdmission(cfg AdmissionConfig, clock func() time.Time, reg *obs.Registry) *admission {
	if !cfg.Enabled {
		return nil
	}
	rate := clampTokens(cfg.Rate, 100, 0.001, 1e6)
	burst := clampTokens(cfg.Burst, 2*rate, 1, 1e6)
	ovRate := clampTokens(cfg.OverflowRate, rate, 0.001, 1e6)
	ovBurst := clampTokens(cfg.OverflowBurst, 4*burst, 1, 1e6)
	a := &admission{
		rateMicro:      int64(rate * microToken),
		burstMicro:     int64(burst * microToken),
		ovRateMicro:    int64(ovRate * microToken),
		ovBurstMicro:   int64(ovBurst * microToken),
		maxClients:     admissionMaxClients,
		clock:          clock,
		admitted:       reg.Counter("irs_proxy_admission_total", obs.L("decision", "admitted")),
		denied:         reg.Counter("irs_proxy_admission_total", obs.L("decision", "denied")),
		borrowed:       reg.Counter("irs_proxy_admission_overflow_borrows_total"),
		clientsTracked: reg.Gauge("irs_proxy_admission_clients"),
	}
	now := clock()
	a.overflow = tbucket{tok: a.ovBurstMicro, last: now}
	for i := range a.stripes {
		a.stripes[i].m = make(map[string]*tbucket)
	}
	return a
}

// stripeFor hashes a client key onto a stripe (FNV-1a).
func (a *admission) stripeFor(client string) *admStripe {
	h := uint64(14695981039346656037)
	for i := 0; i < len(client); i++ {
		h ^= uint64(client[i])
		h *= 1099511628211
	}
	return &a.stripes[h&(admissionStripes-1)]
}

// admit decides one request of cost n tokens from client. The nil
// receiver admits everything.
func (a *admission) admit(client string, n int) bool {
	if a == nil {
		return true
	}
	if n < 1 {
		n = 1
	}
	cost := int64(n) * microToken
	now := a.clock()

	st := a.stripeFor(client)
	st.mu.Lock()
	b := st.m[client]
	if b == nil {
		// First sight of this client: grant a fresh bucket unless the
		// table is at maxClients (then it rides the overflow pool only —
		// key churn must not mint burst allowances).
		if a.clientCount.Load() < a.maxClients {
			b = &tbucket{tok: a.burstMicro, last: now}
			st.m[client] = b
			a.clientsTracked.Set(a.clientCount.Add(1))
		}
	}
	var take int64
	if b != nil {
		b.refill(now, a.rateMicro, a.burstMicro)
		take = b.tok
		if take > cost {
			take = cost
		}
		b.tok -= take
	}
	st.mu.Unlock()

	short := cost - take
	if short == 0 {
		a.admitted.Inc()
		return true
	}
	a.ovMu.Lock()
	a.overflow.refill(now, a.ovRateMicro, a.ovBurstMicro)
	ok := a.overflow.tok >= short
	if ok {
		a.overflow.tok -= short
	}
	a.ovMu.Unlock()
	if ok {
		a.borrowed.Inc()
		a.admitted.Inc()
		return true
	}
	// Denied: refund the private-bucket drain so denial is free for the
	// client (and cannot be used to starve its own future requests).
	if take > 0 {
		st.mu.Lock()
		if cur := st.m[client]; cur == b {
			b.tok += take
			if b.tok > a.burstMicro {
				b.tok = a.burstMicro
			}
		}
		st.mu.Unlock()
	}
	a.denied.Inc()
	return false
}

// Admit reports whether a request of cost n tokens (one per
// identifier) from the given client key may proceed. Always true when
// admission is disabled. Denials are counted in
// irs_proxy_admission_total{decision="denied"} and cost the client
// nothing; they happen before any validation outcome accounting, so
// the six-outcome conservation invariant is unaffected.
func (v *Validator) Admit(client string, n int) bool {
	return v.adm.admit(client, n)
}

// ClientHeader is the request header a browser extension (or the load
// harness) uses to present a stable client key to the proxy.
const ClientHeader = "X-IRS-Client"

// maxClientKeyLen bounds the admission key; longer headers are
// truncated so hostile inputs cannot bloat the bucket table.
const maxClientKeyLen = 64

// ClientKey derives the admission-control key for a request: the
// sanitized ClientHeader value when one is present, otherwise the host
// half of the transport's remote address. The result is never empty,
// at most maxClientKeyLen bytes, and printable ASCII — hostile header
// bytes become '_' rather than new map keys per encoding.
func ClientKey(remoteAddr, header string) string {
	if k := sanitizeClientKey(header); k != "" {
		return k
	}
	host := strings.TrimSpace(remoteAddr)
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	if k := sanitizeClientKey(host); k != "" {
		return k
	}
	return "unknown"
}

// sanitizeClientKey maps a raw key to its canonical bounded form, or
// "" when nothing survives.
func sanitizeClientKey(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return ""
	}
	if len(s) > maxClientKeyLen {
		s = s[:maxClientKeyLen]
	}
	var sb []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c > ' ' && c < 0x7f {
			if sb != nil {
				sb = append(sb, c)
			}
			continue
		}
		if sb == nil {
			sb = append(make([]byte, 0, len(s)), s[:i]...)
		}
		sb = append(sb, '_')
	}
	if sb != nil {
		return string(sb)
	}
	return s
}
