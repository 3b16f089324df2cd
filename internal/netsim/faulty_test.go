package netsim

import (
	"errors"
	"slices"
	"testing"
	"time"
)

func mustFaulty(t *testing.T, l *Link, cfg FaultConfig) *Faulty {
	t.Helper()
	f, err := NewFaulty(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFaultyLossRate(t *testing.T) {
	s := NewScheduler(1)
	l := NewLink(s, Fixed(time.Millisecond), 0)
	f := mustFaulty(t, l, FaultConfig{Seed: 42, LossProb: 0.2})
	var lost, ok int
	const n = 5000
	for i := 0; i < n; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {
			f.Request(func(err error) {
				if errors.Is(err, ErrLost) {
					lost++
				} else if err == nil {
					ok++
				}
			})
		})
	}
	s.RunUntil(forever)
	if lost+ok != n {
		t.Fatalf("callbacks %d, want %d", lost+ok, n)
	}
	frac := float64(lost) / n
	if frac < 0.17 || frac > 0.23 {
		t.Errorf("loss fraction %.3f, want ~0.2", frac)
	}
}

// TestFaultySeedReplaysLosses is the replay contract: the same seed
// loses the same request indices, and a different seed loses others.
func TestFaultySeedReplaysLosses(t *testing.T) {
	run := func(seed int64) []int {
		s := NewScheduler(99) // link seed fixed; only the fault seed varies
		l := NewLink(s, LogNormal{Median: 20 * time.Millisecond, Sigma: 0.5}, 4)
		f := mustFaulty(t, l, FaultConfig{Seed: seed, LossProb: 0.1})
		var lost []int
		for i := 0; i < 300; i++ {
			s.At(time.Duration(i)*5*time.Millisecond, func() {
				f.Request(func(err error) {
					if errors.Is(err, ErrLost) {
						lost = append(lost, i)
					}
				})
			})
		}
		s.RunUntil(forever)
		return lost
	}
	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatal("no request lost at LossProb 0.1")
	}
	if !slices.Equal(a, b) {
		t.Fatalf("same seed lost different requests: %v vs %v", a, b)
	}
	if slices.Equal(a, run(8)) {
		t.Error("different seeds lost the same requests")
	}
}

func TestFaultyConfigValidation(t *testing.T) {
	s := NewScheduler(1)
	l := NewLink(s, Fixed(time.Millisecond), 0)
	if _, err := NewFaulty(l, FaultConfig{LossProb: 1.5}); err == nil {
		t.Error("loss probability > 1 accepted")
	}
	if _, err := NewFaulty(l, FaultConfig{LossProb: -0.1}); err == nil {
		t.Error("loss probability < 0 accepted")
	}
	for _, p := range []float64{0, 1} {
		if _, err := NewFaulty(l, FaultConfig{LossProb: p}); err != nil {
			t.Errorf("loss probability %v refused: %v", p, err)
		}
	}
}
