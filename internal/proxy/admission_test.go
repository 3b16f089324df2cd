package proxy

import (
	"fmt"
	"math"
	"strings"
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
			OverflowRate: 5, OverflowBurst: 8, MaxClients: 2,
		},
	}, nil)
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
		t.Fatalf("tracked clients gauge = %v, want 2 (MaxClients)", g)
	}
	if d, _ := obs.Value(snap, "irs_proxy_admission_total", obs.L("decision", "denied")); d != 92 {
		t.Fatalf("denied counter = %v, want 92", d)
	}
	// Tracked clients keep their private buckets through the churn.
	if !v.Admit("a", 4) {
		t.Fatal("tracked client lost its bucket to key churn")
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
			OverflowRate: 2, OverflowBurst: 11, MaxClients: 4,
		}
		a := newAdmission(cfg, clock, reg)

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
			case 0, 1: // request from one of 8 client keys (> MaxClients)
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
