package netsim

import (
	"errors"
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

func TestFaultyOutageWindow(t *testing.T) {
	s := NewScheduler(1)
	l := NewLink(s, Fixed(10*time.Millisecond), 0)
	f := mustFaulty(t, l, FaultConfig{
		Seed:    7,
		Outages: []Outage{{Start: 50 * time.Millisecond, End: 100 * time.Millisecond}},
	})
	var okc, outc int
	for i := 0; i < 15; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		s.At(at, func() {
			f.Request(func(err error) {
				switch {
				case err == nil:
					okc++
				case errors.Is(err, ErrOutage):
					outc++
				default:
					t.Errorf("unexpected error %v", err)
				}
			})
		})
	}
	s.RunUntil(forever)
	// Requests at t=50,60,70,80,90 fall in [50,100); the one at 100 does
	// not (half-open window).
	if outc != 5 || okc != 10 {
		t.Errorf("outage failures %d, ok %d; want 5/10", outc, okc)
	}
	if f.OutageFailed != 5 || f.OK != 10 || f.Issued != 15 {
		t.Errorf("counters outage=%d ok=%d issued=%d", f.OutageFailed, f.OK, f.Issued)
	}
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

func TestFaultySpikesStretchLatency(t *testing.T) {
	s := NewScheduler(1)
	l := NewLink(s, Fixed(10*time.Millisecond), 0)
	f := mustFaulty(t, l, FaultConfig{
		Seed:      3,
		SpikeProb: 0.5,
		Spike:     Fixed(200 * time.Millisecond),
	})
	var lat []time.Duration
	const n = 200
	for i := 0; i < n; i++ {
		at := time.Duration(i) * time.Second
		s.At(at, func() {
			issued := s.Now()
			f.Request(func(err error) {
				if err != nil {
					t.Errorf("unexpected error %v", err)
					return
				}
				lat = append(lat, s.Now()-issued)
			})
		})
	}
	s.RunUntil(forever)
	var base, spiked int
	for _, d := range lat {
		switch d {
		case 10 * time.Millisecond:
			base++
		case 210 * time.Millisecond:
			spiked++
		default:
			t.Fatalf("latency %v is neither base nor spiked", d)
		}
	}
	if spiked == 0 || base == 0 {
		t.Fatalf("base %d spiked %d: spike injection not observed", base, spiked)
	}
	if int(f.Spiked) != spiked {
		t.Errorf("Spiked counter %d, observed %d", f.Spiked, spiked)
	}
}

func TestFaultyFailLatency(t *testing.T) {
	s := NewScheduler(1)
	l := NewLink(s, Fixed(time.Millisecond), 0)
	f := mustFaulty(t, l, FaultConfig{
		Seed:        1,
		FailLatency: Fixed(30 * time.Millisecond),
		Outages:     []Outage{{Start: 0, End: time.Hour}},
	})
	var failedAt time.Duration = -1
	f.Request(func(err error) {
		if !errors.Is(err, ErrOutage) {
			t.Errorf("want ErrOutage, got %v", err)
		}
		failedAt = s.Now()
	})
	s.RunUntil(forever)
	if failedAt != 30*time.Millisecond {
		t.Errorf("failure surfaced at %v, want 30ms (the simulated connect timeout)", failedAt)
	}
}

// TestFaultyTraceReplay is the replay contract: the same seed produces
// a byte-identical failure trace, and a different seed does not.
func TestFaultyTraceReplay(t *testing.T) {
	run := func(seed int64) string {
		s := NewScheduler(99) // link seed fixed; only the fault seed varies
		l := NewLink(s, LogNormal{Median: 20 * time.Millisecond, Sigma: 0.5}, 4)
		f := mustFaulty(t, l, FaultConfig{
			Seed:        seed,
			LossProb:    0.1,
			SpikeProb:   0.2,
			Spike:       Uniform{Min: 50 * time.Millisecond, Max: 250 * time.Millisecond},
			FailLatency: Fixed(40 * time.Millisecond),
			Outages:     []Outage{{Start: 200 * time.Millisecond, End: 400 * time.Millisecond}},
		})
		for i := 0; i < 300; i++ {
			s.At(time.Duration(i)*5*time.Millisecond, func() {
				f.Request(func(error) {})
			})
		}
		s.RunUntil(forever)
		return f.TraceString()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatal("same seed produced different fault traces")
	}
	if a == run(8) {
		t.Error("different seeds produced identical fault traces")
	}
	if len(a) == 0 {
		t.Error("empty trace")
	}
}

// TestFaultyOutageDoesNotShiftFate pins the fixed-draws-per-request
// property: adding an outage window must not change which later
// requests are lost or spiked.
func TestFaultyOutageDoesNotShiftFate(t *testing.T) {
	run := func(outages []Outage) []FaultEvent {
		s := NewScheduler(5)
		l := NewLink(s, Fixed(time.Millisecond), 0)
		f := mustFaulty(t, l, FaultConfig{
			Seed:      11,
			LossProb:  0.3,
			SpikeProb: 0.3,
			Spike:     Fixed(5 * time.Millisecond),
			Outages:   outages,
		})
		for i := 0; i < 100; i++ {
			s.At(time.Duration(i)*10*time.Millisecond, func() { f.Request(func(error) {}) })
		}
		s.RunUntil(forever)
		return f.trace
	}
	clean := run(nil)
	window := Outage{Start: 300 * time.Millisecond, End: 500 * time.Millisecond}
	faulted := run([]Outage{window})
	if len(clean) != len(faulted) {
		t.Fatalf("trace lengths differ: %d vs %d", len(clean), len(faulted))
	}
	for i := range clean {
		if faulted[i].At >= window.Start && faulted[i].At < window.End {
			if faulted[i].Outcome != OutcomeOutage {
				t.Errorf("event %d inside window has outcome %d", i, faulted[i].Outcome)
			}
			continue
		}
		if clean[i] != faulted[i] {
			t.Errorf("event %d fate shifted by unrelated outage: %v vs %v", i, clean[i], faulted[i])
		}
	}
}

func TestFaultyConfigValidation(t *testing.T) {
	s := NewScheduler(1)
	l := NewLink(s, Fixed(time.Millisecond), 0)
	if _, err := NewFaulty(l, FaultConfig{LossProb: 1.5}); err == nil {
		t.Error("loss probability > 1 accepted")
	}
	if _, err := NewFaulty(l, FaultConfig{SpikeProb: 0.5}); err == nil {
		t.Error("spike probability without distribution accepted")
	}
	if _, err := NewFaulty(l, FaultConfig{Outages: []Outage{{Start: 2, End: 1}}}); err == nil {
		t.Error("inverted outage window accepted")
	}
}
