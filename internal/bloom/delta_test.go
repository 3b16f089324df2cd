package bloom

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"irs/internal/parallel"
)

// v1Frame hand-builds a well-formed frame of the removed IRSBD1 format:
// the same header and gap list with no base or result hash, so a
// receiver could check only m and k. Apply must reject it.
func v1Frame(prev, next *Filter) []byte {
	out := binary.BigEndian.AppendUint64([]byte("IRSBD1"), prev.m)
	out = binary.BigEndian.AppendUint32(out, uint32(prev.k))
	out = binary.BigEndian.AppendUint64(out, prev.n)
	out = binary.BigEndian.AppendUint64(out, next.n)
	flips := diffFlips(prev.bits, next.bits)
	count, _ := gapsLen(flips)
	return appendGaps(out, count, flips)
}

// TestDeltaRoundTrip compares the bit arrays word by word — an oracle
// independent of the Hash that Apply itself validates against.
func TestDeltaRoundTrip(t *testing.T) {
	base, err := NewWithEstimate(10000, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		base.Add(parallel.SplitMix64(i))
	}
	next := base.Clone()
	for i := uint64(5000); i < 5200; i++ {
		next.Add(parallel.SplitMix64(i))
	}
	d, err := DeltaWithBase(base, next)
	if err != nil {
		t.Fatal(err)
	}
	applied := base.Clone()
	if _, err := apply(applied, nil, d); err != nil {
		t.Fatal(err)
	}
	if applied.n != next.n {
		t.Errorf("N after apply = %d, want %d", applied.n, next.n)
	}
	for i := range next.bits {
		if applied.bits[i] != next.bits[i] {
			t.Fatalf("word %d differs after delta apply", i)
		}
	}
}

func TestDeltaEmpty(t *testing.T) {
	base, err := New(1<<12, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DeltaWithBase(base, base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// Empty delta: header + count only.
	if len(d) > deltaHeaderLen+1 {
		t.Errorf("no-change delta is %d bytes", len(d))
	}
	cp := base.Clone()
	if _, err := apply(cp, nil, d); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaMuchSmallerThanFull(t *testing.T) {
	// The point of E5: hourly churn deltas are a tiny fraction of a full
	// snapshot transfer.
	base, err := NewWithEstimate(100000, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100000; i++ {
		base.Add(parallel.SplitMix64(i))
	}
	next := base.Clone()
	for i := uint64(100000); i < 100500; i++ { // 0.5% churn
		next.Add(parallel.SplitMix64(i))
	}
	d, err := DeltaWithBase(base, next)
	if err != nil {
		t.Fatal(err)
	}
	full := len(next.Marshal())
	if len(d)*10 > full {
		t.Errorf("delta %d bytes vs full %d — expected >10x saving", len(d), full)
	}
}

func TestDeltaMismatch(t *testing.T) {
	a, err := New(1<<12, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(1<<13, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeltaWithBase(a, b); err != ErrMismatch {
		t.Errorf("got %v, want ErrMismatch", err)
	}
	d, err := DeltaWithBase(a, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apply(b, nil, d); err != ErrMismatch {
		t.Errorf("apply to mismatched filter: got %v, want ErrMismatch", err)
	}
}

func TestApplyRejectsGarbage(t *testing.T) {
	f, err := New(1<<12, 4)
	if err != nil {
		t.Fatal(err)
	}
	next := f.Clone()
	next.Add(123)
	d, err := DeltaWithBase(f, next)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"empty":     {},
		"badmagic":  []byte("NOTDELTAxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
		"truncated": d[:len(d)-4],
		"v1 frame":  v1Frame(f, next),
	} {
		if _, err := apply(f.Clone(), nil, b); err == nil {
			t.Errorf("Apply accepted %s", name)
		}
		if _, err := ApplyUpdate(f, b); err == nil {
			t.Errorf("ApplyUpdate accepted %s", name)
		}
	}
}

func TestDeltaV2RoundTrip(t *testing.T) {
	base, err := NewWithEstimate(10000, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		base.Add(parallel.SplitMix64(i))
	}
	next := base.Clone()
	for i := uint64(5000); i < 5200; i++ {
		next.Add(parallel.SplitMix64(i))
	}
	d, err := DeltaWithBase(base, next)
	if err != nil {
		t.Fatal(err)
	}
	applied := base.Clone()
	if _, err := apply(applied, nil, d); err != nil {
		t.Fatal(err)
	}
	if applied.Hash() != next.Hash() {
		t.Fatal("v2 delta did not reproduce target")
	}
	if applied.n != next.n {
		t.Errorf("N after apply = %d, want %d", applied.n, next.n)
	}
}

// The bug the base hash exists to catch: a base with the *same*
// parameters but different contents (a restarted ledger renumbering
// epochs lands here) must be rejected before any bit is flipped, not
// silently corrupted.
func TestDeltaV2WrongBase(t *testing.T) {
	base, err := New(1<<12, 4)
	if err != nil {
		t.Fatal(err)
	}
	base.Add(1)
	next := base.Clone()
	next.Add(2)
	d, err := DeltaWithBase(base, next)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := New(1<<12, 4) // identical m/k, different bits
	if err != nil {
		t.Fatal(err)
	}
	wrong.Add(99)
	before := wrong.Hash()
	if _, err := apply(wrong, nil, d); err != ErrBaseMismatch {
		t.Fatalf("got %v, want ErrBaseMismatch", err)
	}
	if wrong.Hash() != before {
		t.Fatal("filter mutated despite base mismatch")
	}
	// Parameter mismatch still reports as ErrMismatch, not base mismatch.
	other, err := New(1<<13, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apply(other, nil, d); err != ErrMismatch {
		t.Fatalf("got %v, want ErrMismatch", err)
	}
}

func TestDeltaV2ResultTamper(t *testing.T) {
	base, err := New(1<<12, 4)
	if err != nil {
		t.Fatal(err)
	}
	next := base.Clone()
	next.Add(7)
	d, err := DeltaWithBase(base, next)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the expected-result hash: the gaps apply cleanly but the
	// outcome no longer matches, so the frame must be rejected.
	d[66] ^= 0xff
	if _, err := apply(base.Clone(), nil, d); err != ErrResultMismatch {
		t.Fatalf("got %v, want ErrResultMismatch", err)
	}
}

// Satellite 1: Update must pick snapshot vs delta by encoded size.
// Small churn crosses over to a delta; a rebuild after a mass takedown
// flips more bits than the snapshot carries and must ship the snapshot.
func TestUpdateCrossover(t *testing.T) {
	base, err := NewWithEstimate(50000, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50000; i++ {
		base.Add(parallel.SplitMix64(i))
	}

	// Low churn: delta wins.
	low := base.Clone()
	for i := uint64(50000); i < 50100; i++ {
		low.Add(parallel.SplitMix64(i))
	}
	payload, err := Update(base, low)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload[:6]) != deltaMagic {
		t.Fatalf("low churn shipped %q, want v2 delta", payload[:6])
	}
	if len(payload) >= len(low.Marshal()) {
		t.Fatalf("delta %d bytes not smaller than snapshot %d", len(payload), len(low.Marshal()))
	}
	got, err := ApplyUpdate(base, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != low.Hash() {
		t.Fatal("delta update did not reproduce target")
	}

	// Mass rebuild: an entirely different population at the same m/k.
	// The XOR set is huge, the varint gap list exceeds the bit array,
	// and Update must fall back to the snapshot.
	rebuilt, err := New(base.M(), base.K())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50000; i++ {
		rebuilt.Add(parallel.SplitMix64(i + 1_000_000))
	}
	payload, err = Update(base, rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload[:6]) != filterMagic {
		t.Fatalf("mass rebuild shipped %q, want snapshot", payload[:6])
	}
	if len(payload) > len(rebuilt.Marshal()) {
		t.Fatalf("snapshot payload %d bytes exceeds Marshal %d", len(payload), len(rebuilt.Marshal()))
	}
	d, err := DeltaWithBase(base, rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) <= len(payload) {
		t.Fatalf("crossover not exercised: delta %d <= snapshot %d", len(d), len(payload))
	}
	got, err = ApplyUpdate(base, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != rebuilt.Hash() {
		t.Fatal("snapshot update did not reproduce target")
	}

	// Parameter change always yields a snapshot.
	resized, err := NewWithEstimate(200000, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	resized.Add(1)
	payload, err = Update(base, resized)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload[:6]) != filterMagic {
		t.Fatalf("resize shipped %q, want snapshot", payload[:6])
	}
}

func TestApplyUpdateBase(t *testing.T) {
	base, err := New(1<<12, 4)
	if err != nil {
		t.Fatal(err)
	}
	next := base.Clone()
	next.Add(3)

	// Snapshot payloads need no base.
	got, err := ApplyUpdate(nil, next.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != next.Hash() {
		t.Fatal("snapshot ApplyUpdate mismatch")
	}

	// Delta payloads without a base must error, not panic.
	d, err := DeltaWithBase(base, next)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyUpdate(nil, d); err == nil {
		t.Fatal("delta without base accepted")
	}

	// A failed delta apply must leave the caller's base untouched.
	wrong := base.Clone()
	wrong.Add(77)
	before := wrong.Hash()
	if _, err := ApplyUpdate(wrong, d); err != ErrBaseMismatch {
		t.Fatalf("got %v, want ErrBaseMismatch", err)
	}
	if wrong.Hash() != before {
		t.Fatal("base mutated by failed ApplyUpdate")
	}
}

// Property: for any two populations at shared parameters — including
// targets that *clear* bits relative to the base (the rebuild XOR
// path) — Update→ApplyUpdate reproduces the target exactly.
func TestQuickUpdateExact(t *testing.T) {
	f := func(baseKeys, nextKeys []uint64, shared []uint64) bool {
		base, err := New(1<<10, 3)
		if err != nil {
			return false
		}
		next, err := New(1<<10, 3)
		if err != nil {
			return false
		}
		// Disjoint halves force bit-clearing XOR entries; shared keys keep
		// some overlap so the delta isn't degenerate.
		for _, k := range baseKeys {
			base.Add(k)
		}
		for _, k := range nextKeys {
			next.Add(k)
		}
		for _, k := range shared {
			base.Add(k)
			next.Add(k)
		}
		payload, err := Update(base, next)
		if err != nil {
			return false
		}
		got, err := ApplyUpdate(base, payload)
		if err != nil {
			return false
		}
		if got.Hash() != next.Hash() {
			return false
		}
		// The v2 delta alone must also reproduce the target.
		d, err := DeltaWithBase(base, next)
		if err != nil {
			return false
		}
		viaDelta := base.Clone()
		if _, err := apply(viaDelta, nil, d); err != nil {
			return false
		}
		return viaDelta.Hash() == next.Hash() && viaDelta.n == next.n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for any two populations, applying the delta to the base
// reproduces the target's bit array exactly (compared word by word,
// not through Hash).
func TestQuickDeltaExact(t *testing.T) {
	f := func(baseKeys, addKeys []uint64) bool {
		base, err := New(1<<10, 3)
		if err != nil {
			return false
		}
		for _, k := range baseKeys {
			base.Add(k)
		}
		next := base.Clone()
		for _, k := range addKeys {
			next.Add(k)
		}
		d, err := DeltaWithBase(base, next)
		if err != nil {
			return false
		}
		got := base.Clone()
		if _, err := apply(got, nil, d); err != nil {
			return false
		}
		for i := range got.bits {
			if got.bits[i] != next.bits[i] {
				return false
			}
		}
		return got.n == next.n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
