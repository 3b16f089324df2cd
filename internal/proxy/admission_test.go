package proxy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
)

func TestAdmissionDisabledAdmitsEverything(t *testing.T) {
	v := NewValidator(Config{}, nil)
	for i := 0; i < 1000; i++ {
		if !v.Admit("anyone", 1000) {
			t.Fatal("disabled admission denied a request")
		}
	}
}

// TestAdmissionIdenticalDecisionsUnderBenign is the gate the tentpole
// fix rides behind: with admission enabled at a rate benign traffic
// never exceeds, every request is admitted and every validation
// answers byte-identically to the unthrottled baseline — same result,
// same source, same outcome counters. Admission must be a front door,
// never a decision path.
func TestAdmissionIdenticalDecisionsUnderBenign(t *testing.T) {
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	build := func(adm AdmissionConfig, fl *fakeLedger) *Validator {
		return NewValidator(Config{
			CacheCapacity: 64,
			CacheTTL:      time.Minute,
			Clock:         clock,
			Admission:     adm,
		}, fl.batch)
	}
	flBase, flAdm := newFakeLedger(), newFakeLedger()
	base := build(AdmissionConfig{}, flBase)
	gated := build(AdmissionConfig{Enabled: true, Rate: 1000, Burst: 2000}, flAdm)

	pop := make([]ids.PhotoID, 32)
	for i := range pop {
		pop[i] = mustNewID(t, ids.LedgerID(i%4+1))
		st := ledger.StateActive
		if i%5 == 0 {
			st = ledger.StateRevoked
		}
		flBase.states[pop[i]] = st
		flAdm.states[pop[i]] = st
	}

	for i := 0; i < 400; i++ {
		client := fmt.Sprintf("client-%d", i%8)
		id := pop[(i*7)%len(pop)]
		if !gated.Admit(client, 1) {
			t.Fatalf("benign request %d from %s denied", i, client)
		}
		got, gerr := gated.Validate(id)
		want, werr := base.Validate(id)
		if (gerr == nil) != (werr == nil) || got.State != want.State || got.Source != want.Source {
			t.Fatalf("request %d: gated (%v,%v,%v) != baseline (%v,%v,%v)",
				i, got.State, got.Source, gerr, want.State, want.Source, werr)
		}
		if i%50 == 0 {
			now = now.Add(time.Second)
		}
	}
	if g, b := gated.Stats(), base.Stats(); g != b {
		t.Fatalf("outcome counters diverged: gated %+v baseline %+v", g, b)
	}
}

// TestAdmissionFloodIsolation pins the fairness claim: a flooding
// client exhausts its own bucket plus the shared overflow pool and is
// denied, while a benign client's private bucket keeps admitting every
// one of its requests.
func TestAdmissionFloodIsolation(t *testing.T) {
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	v := NewValidator(Config{
		Clock: func() time.Time { return now },
		Admission: AdmissionConfig{
			Enabled: true, Rate: 10, Burst: 10,
			OverflowRate: 10, OverflowBurst: 20,
		},
	}, nil)

	// Flooder: the clock is frozen, so its allowance is exactly burst
	// (10) + overflow (20) tokens, deterministically.
	admitted := 0
	for i := 0; i < 200; i++ {
		if v.Admit("flooder", 1) {
			admitted++
		}
	}
	if admitted != 30 {
		t.Fatalf("flooder admitted %d requests, want exactly burst+overflow = 30", admitted)
	}
	// Benign client: private bucket untouched by the flood.
	for i := 0; i < 10; i++ {
		if !v.Admit("benign", 1) {
			t.Fatalf("benign request %d denied during flood", i)
		}
	}
	// And the benign client recovers at its own rate once time moves.
	now = now.Add(time.Second)
	for i := 0; i < 10; i++ {
		if !v.Admit("benign", 1) {
			t.Fatalf("benign request %d denied after refill", i)
		}
	}
}

// TestAdmissionMaxClientsRidesOverflow: once the bucket table is full,
// unseen client keys get no private burst — they are admitted from the
// shared pool only, so key churn cannot mint allowances or grow memory.
func TestAdmissionMaxClientsRidesOverflow(t *testing.T) {
	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	reg := obs.NewRegistry()
	v := NewValidator(Config{
		Clock: func() time.Time { return now },
		Obs:   reg,
		Admission: AdmissionConfig{
			Enabled: true, Rate: 5, Burst: 5,
			OverflowRate: 5, OverflowBurst: 8,
		},
	}, nil)
	v.adm.maxClients = 2
	if !v.Admit("a", 1) || !v.Admit("b", 1) {
		t.Fatal("tracked clients denied their first request")
	}
	churnAdmitted := 0
	for i := 0; i < 100; i++ {
		if v.Admit(fmt.Sprintf("churn-%d", i), 1) {
			churnAdmitted++
		}
	}
	if churnAdmitted != 8 {
		t.Fatalf("churned keys admitted %d requests, want exactly the overflow burst 8", churnAdmitted)
	}
	snap := reg.Snapshot()
	if g, _ := obs.Value(snap, "irs_proxy_admission_clients"); g != 2 {
		t.Fatalf("tracked clients gauge = %v, want 2 (maxClients)", g)
	}
	if d, _ := obs.Value(snap, "irs_proxy_admission_total", obs.L("decision", "denied")); d != 92 {
		t.Fatalf("denied counter = %v, want 92", d)
	}
	// Tracked clients keep their private buckets through the churn.
	if !v.Admit("a", 4) {
		t.Fatal("tracked client lost its bucket to key churn")
	}
}

// TestAdmissionStampedeShieldsBenign: a cache-busting flood, timed at
// the moment every cached proof expires, races benign page views for an
// upstream that answers a bounded number of ids per epoch. Without
// admission the flood drains the epoch's budget and benign pages fail;
// with it the flooder is denied at the door after its burst and the
// overflow lane, and every benign page is served. A benign twin with no
// flood is served in full. The flood runs to completion before the
// page views and the clock is frozen, so every count is a function of
// the bucket parameters alone.
func TestAdmissionStampedeShieldsBenign(t *testing.T) {
	const nIDs, workers, pages, batch, flood = 512, 4, 8, 24, 3000
	fl := newFakeLedger()
	pop := make([]ids.PhotoID, nIDs)
	for i := range pop {
		pop[i] = mustNewID(t, 1)
		fl.states[pop[i]] = ledger.StateActive
		if i%10 == 0 {
			fl.states[pop[i]] = ledger.StateRevoked
		}
	}
	errOverload := errors.New("upstream over capacity")

	// run returns the benign pages served with the truth, and the
	// flood requests admission denied.
	run := func(flooded, admission bool) (served, floodDenied int) {
		now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
		var budget atomic.Int64
		adm := AdmissionConfig{}
		if admission {
			// A benign client's whole storm fits its private burst (the
			// frozen clock refills nothing); the flooder gets the same
			// burst plus the small shared lane, then is denied.
			adm = AdmissionConfig{
				Enabled:       true,
				Rate:          pages * batch,
				Burst:         pages * batch,
				OverflowRate:  1,
				OverflowBurst: batch,
			}
		}
		v := NewValidator(Config{
			CacheCapacity: 2 * nIDs,
			CacheTTL:      time.Minute,
			Clock:         func() time.Time { return now },
			Admission:     adm,
		}, func(lid ids.LedgerID, b []ids.PhotoID) ([]*ledger.StatusProof, error) {
			if budget.Add(-int64(len(b))) < 0 {
				return nil, errOverload
			}
			return fl.batch(lid, b)
		})
		budget.Store(4 * nIDs)
		for lo := 0; lo < nIDs; lo += batch {
			if _, err := v.ValidateBatch(pop[lo:min(lo+batch, nIDs)]); err != nil {
				t.Fatalf("preload: %v", err)
			}
		}
		// The epoch barrier: every cached proof expires at once, and the
		// upstream's budget is the benign demand plus slack.
		now = now.Add(2 * time.Minute)
		budget.Store(workers*pages*batch + nIDs)
		if flooded {
			frng := rand.New(rand.NewSource(0xf10cd))
			for i := 0; i < flood; i++ {
				var id ids.PhotoID // never claimed: every one an upstream miss
				id.Ledger = 1
				frng.Read(id.Rec[:])
				if !v.Admit("flooder", 1) {
					floodDenied++
					continue
				}
				_, _ = v.Validate(id)
			}
		}
		var wg sync.WaitGroup
		servedBy := make([]int, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(0x57a0 + w)))
				zipf := rand.NewZipf(rng, 1.1, 1, nIDs-1)
				page := make([]ids.PhotoID, batch)
				client := fmt.Sprintf("benign-%d", w)
				for p := 0; p < pages; p++ {
					for i := range page {
						page[i] = pop[zipf.Uint64()]
					}
					if !v.Admit(client, len(page)) {
						continue
					}
					res, err := v.ValidateBatch(page)
					ok := err == nil
					for i := range res {
						ok = ok && res[i].State == fl.states[page[i]]
					}
					if ok {
						servedBy[w]++
					}
				}
			}(w)
		}
		wg.Wait()
		for _, n := range servedBy {
			served += n
		}
		return served, floodDenied
	}

	const total = workers * pages
	if served, denied := run(true, true); served < total*99/100 || denied < flood*9/10 {
		t.Errorf("admission on: %d/%d benign pages served, %d/%d flood requests denied; want >= 99%% and >= 90%%",
			served, total, denied, flood)
	}
	if served, _ := run(true, false); served >= total*99/100 {
		t.Errorf("admission off: %d/%d benign pages served; the unthrottled flood should starve them", served, total)
	}
	if served, _ := run(false, false); served != total {
		t.Errorf("benign twin: %d/%d pages served, want all", served, total)
	}
}

func TestClientKey(t *testing.T) {
	cases := []struct {
		remote, header, want string
	}{
		{"10.1.2.3:5144", "", "10.1.2.3"},
		{"[2001:db8::1]:443", "", "2001:db8::1"},
		{"10.1.2.3:5144", "ext-abc", "ext-abc"},
		{"10.1.2.3:5144", "  padded  ", "padded"},
		{"10.1.2.3:5144", "bad\x00byte\tkey", "bad_byte_key"},
		{"10.1.2.3:5144", strings.Repeat("x", 200), strings.Repeat("x", 64)},
		{"", "", "unknown"},
		{"   ", "\x00\x01", "__"},
	}
	for _, c := range cases {
		if got := ClientKey(c.remote, c.header); got != c.want {
			t.Errorf("ClientKey(%q, %q) = %q, want %q", c.remote, c.header, got, c.want)
		}
	}
}

// FuzzAdmissionClientKey: whatever a client puts on the wire, the
// derived key is non-empty, bounded, printable, and deterministic.
func FuzzAdmissionClientKey(f *testing.F) {
	f.Add("10.0.0.1:80", "client-a")
	f.Add("[::1]:9", "")
	f.Add("", "\x00\xff\xfe")
	f.Add("nonsense", strings.Repeat("\x7f", 300))
	f.Fuzz(func(t *testing.T, remote, header string) {
		k := ClientKey(remote, header)
		if k == "" {
			t.Fatal("empty client key")
		}
		if len(k) > maxClientKeyLen {
			t.Fatalf("key too long: %d bytes", len(k))
		}
		for i := 0; i < len(k); i++ {
			if k[i] <= ' ' || k[i] >= 0x7f {
				t.Fatalf("unprintable byte %#x in key %q", k[i], k)
			}
		}
		if k2 := ClientKey(remote, header); k2 != k {
			t.Fatalf("nondeterministic: %q vs %q", k, k2)
		}
	})
}

// FuzzAdmissionAccounting drives the bucket machinery with arbitrary
// interleavings of requests, client keys, costs, and clock movement —
// including backward jumps — and checks the two safety claims:
// no bucket ever goes negative or exceeds its burst, and the total
// cost ever admitted never exceeds the tokens that were actually
// available (initial allowances plus elapsed refill, summed with
// floor rounding, so the bound is exact — any overshoot is a real
// over-admission bug, not fuzz slack).
func FuzzAdmissionAccounting(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 9, 9, 9})
	f.Add([]byte{255, 254, 0, 0, 0, 7, 130, 66, 12, 0, 44})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		now := time.Unix(1_668_384_000, 0)
		clock := func() time.Time { return now }
		reg := obs.NewRegistry()
		cfg := AdmissionConfig{
			Enabled: true, Rate: 3, Burst: 7,
			OverflowRate: 2, OverflowBurst: 11,
		}
		a := newAdmission(cfg, clock, reg)
		a.maxClients = 4

		var admittedCost int64 // microtokens actually admitted
		var forwardNs int64    // total forward clock movement
		granted := 0           // clients that received a private bucket

		checkBuckets := func() {
			t.Helper()
			for i := range a.stripes {
				for k, b := range a.stripes[i].m {
					if b.tok < 0 || b.tok > a.burstMicro {
						t.Fatalf("client %q bucket out of range: %d (burst %d)", k, b.tok, a.burstMicro)
					}
				}
			}
			if a.overflow.tok < 0 || a.overflow.tok > a.ovBurstMicro {
				t.Fatalf("overflow pool out of range: %d (burst %d)", a.overflow.tok, a.ovBurstMicro)
			}
		}

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int64(ops[i+1])
			switch op % 4 {
			case 0, 1: // request from one of 8 client keys (> maxClients)
				client := fmt.Sprintf("c%d", op%8)
				wasTracked := a.stripeFor(client).m[client] != nil
				cost := arg%10 + 1
				if a.admit(client, int(cost)) {
					admittedCost += cost * microToken
				}
				if !wasTracked && a.stripeFor(client).m[client] != nil {
					granted++
				}
			case 2: // clock forward up to ~2.55s
				d := arg * 10 * int64(time.Millisecond)
				now = now.Add(time.Duration(d))
				forwardNs += d
			case 3: // clock backward (must be ignored, not refunded)
				now = now.Add(-time.Duration(arg) * time.Millisecond)
			}
			checkBuckets()
		}

		// Exact availability bound: every granted bucket starts at burst
		// and refills at most rate×forward; the overflow pool likewise.
		// Floor rounding makes each refill ≤ the ideal, so exceeding
		// this bound means tokens were admitted that never existed.
		budget := int64(granted)*a.burstMicro + a.ovBurstMicro +
			int64(granted)*scaledTokens(forwardNs, a.rateMicro, math.MaxInt64/4) +
			scaledTokens(forwardNs, a.ovRateMicro, math.MaxInt64/4)
		if admittedCost > budget {
			t.Fatalf("over-admission: admitted %d microtokens with only %d available", admittedCost, budget)
		}
	})
}
