package browser

import (
	"math/rand"
	"testing"
	"time"

	"irs/internal/netsim"
)

// handPlan builds a small deterministic plan for arithmetic checks.
func handPlan(check time.Duration, imgs ...ImagePlan) PagePlan {
	p := PagePlan{HTMLLatency: 100 * time.Millisecond, Images: imgs}
	p.CheckLatency = make([]time.Duration, len(imgs))
	for i := range p.CheckLatency {
		p.CheckLatency[i] = check
	}
	return p
}

func img(fetch, meta time.Duration) ImagePlan {
	return ImagePlan{FetchDur: fetch, MetaOffset: meta, Labeled: true}
}

func TestLoadOffBaseline(t *testing.T) {
	p := handPlan(0, img(500*time.Millisecond, 50*time.Millisecond))
	r := Load(p, ModeOff, 6)
	if r.FCP != 100*time.Millisecond {
		t.Errorf("FCP %v", r.FCP)
	}
	if r.FullRender != 600*time.Millisecond {
		t.Errorf("FullRender %v, want 600ms", r.FullRender)
	}
	if r.ChecksIssued != 0 {
		t.Errorf("checks %d in ModeOff", r.ChecksIssued)
	}
}

func TestPipelinedHidesCheck(t *testing.T) {
	// Check finishes during remaining body transfer: zero delay.
	p := handPlan(200*time.Millisecond, img(500*time.Millisecond, 50*time.Millisecond))
	r := Load(p, ModePipelined, 6)
	if r.FullRender != 600*time.Millisecond {
		t.Errorf("FullRender %v, want 600ms (check hidden)", r.FullRender)
	}
	if r.CheckStalled != 0 {
		t.Errorf("stalled %d", r.CheckStalled)
	}
	if r.ChecksIssued != 1 {
		t.Errorf("checks %d", r.ChecksIssued)
	}
}

func TestPipelinedSlowCheckStalls(t *testing.T) {
	// meta at 50ms + 600ms check = 650ms > 500ms body.
	p := handPlan(600*time.Millisecond, img(500*time.Millisecond, 50*time.Millisecond))
	r := Load(p, ModePipelined, 6)
	want := 100*time.Millisecond + 50*time.Millisecond + 600*time.Millisecond
	if r.FullRender != want {
		t.Errorf("FullRender %v, want %v", r.FullRender, want)
	}
	if r.CheckStalled != 1 {
		t.Errorf("stalled %d", r.CheckStalled)
	}
}

func TestBlockingAlwaysAddsLatency(t *testing.T) {
	p := handPlan(200*time.Millisecond, img(500*time.Millisecond, 50*time.Millisecond))
	r := Load(p, ModeBlocking, 6)
	want := 100*time.Millisecond + 500*time.Millisecond + 200*time.Millisecond
	if r.FullRender != want {
		t.Errorf("FullRender %v, want %v", r.FullRender, want)
	}
	if r.CheckStalled != 1 {
		t.Errorf("blocking check should count as a stall")
	}
}

func TestUnlabeledImagesSkipChecks(t *testing.T) {
	im := img(500*time.Millisecond, 50*time.Millisecond)
	im.Labeled = false
	p := handPlan(time.Hour, im) // absurd check latency; must not matter
	r := Load(p, ModePipelined, 6)
	if r.ChecksIssued != 0 {
		t.Errorf("unlabeled image checked")
	}
	if r.FullRender != 600*time.Millisecond {
		t.Errorf("FullRender %v", r.FullRender)
	}
}

func TestConnectionPoolQueueing(t *testing.T) {
	// 4 equal images on 2 connections: two rounds.
	p := handPlan(0,
		img(300*time.Millisecond, 0), img(300*time.Millisecond, 0),
		img(300*time.Millisecond, 0), img(300*time.Millisecond, 0))
	r := Load(p, ModeOff, 2)
	want := 100*time.Millisecond + 600*time.Millisecond
	if r.FullRender != want {
		t.Errorf("FullRender %v, want %v", r.FullRender, want)
	}
	// Default pool when connections <= 0.
	r = Load(p, ModeOff, 0)
	if r.FullRender != 100*time.Millisecond+300*time.Millisecond {
		t.Errorf("default pool: %v", r.FullRender)
	}
}

// overhead is the full-render delay mode adds to the plan's baseline
// load (never negative: both runs share all draws).
func overhead(p PagePlan, mode Mode, connections int) time.Duration {
	return Load(p, mode, connections).FullRender - Load(p, ModeOff, connections).FullRender
}

func TestOverheadNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spec := PinterestSpec(netsim.Fixed(150 * time.Millisecond))
	for i := 0; i < 50; i++ {
		p := spec.Sample(rng)
		if d := overhead(p, ModePipelined, 6); d < 0 {
			t.Fatalf("negative overhead %v", d)
		}
	}
}

func TestPinterestZeroDelayCrossover(t *testing.T) {
	// §4.3: checks under 250 ms add no rendering delay on the
	// pinterest-like page; above the crossover, images start stalling.
	rng := rand.New(rand.NewSource(2))
	under := PinterestSpec(netsim.Fixed(240 * time.Millisecond))
	for i := 0; i < 30; i++ {
		p := under.Sample(rng)
		r := Load(p, ModePipelined, 6)
		if r.CheckStalled != 0 {
			t.Fatalf("check at 240ms stalled %d images", r.CheckStalled)
		}
		if overhead(p, ModePipelined, 6) != 0 {
			t.Fatalf("check at 240ms added render delay")
		}
	}
	over := PinterestSpec(netsim.Fixed(400 * time.Millisecond))
	stalledSomewhere := false
	for i := 0; i < 30; i++ {
		p := over.Sample(rng)
		if Load(p, ModePipelined, 6).CheckStalled > 0 {
			stalledSomewhere = true
			break
		}
	}
	if !stalledSomewhere {
		t.Error("400ms checks never stalled — crossover miscalibrated")
	}
}

func TestBlockingWorseThanPipelined(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spec := PinterestSpec(netsim.Fixed(150 * time.Millisecond))
	for i := 0; i < 20; i++ {
		p := spec.Sample(rng)
		pip := Load(p, ModePipelined, 6).FullRender
		blk := Load(p, ModeBlocking, 6).FullRender
		if blk < pip {
			t.Fatalf("blocking (%v) beat pipelined (%v)", blk, pip)
		}
	}
}

func TestSampleRespectsSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	spec := PageSpec{
		NImagesMin:      3,
		NImagesMax:      7,
		HTML:            netsim.Fixed(100 * time.Millisecond),
		ImageFetch:      netsim.Uniform{Min: 200 * time.Millisecond, Max: 300 * time.Millisecond},
		MetaDelay:       netsim.Fixed(500 * time.Millisecond), // longer than any fetch
		Check:           netsim.Fixed(10 * time.Millisecond),
		LabeledFraction: 1,
	}
	for i := 0; i < 50; i++ {
		p := spec.Sample(rng)
		if len(p.Images) < 3 || len(p.Images) > 7 {
			t.Fatalf("image count %d", len(p.Images))
		}
		for _, im := range p.Images {
			if im.MetaOffset > im.FetchDur {
				t.Fatal("meta offset exceeds fetch duration — must be clamped")
			}
			if !im.Labeled {
				t.Fatal("labeled fraction 1 produced unlabeled image")
			}
		}
		if len(p.CheckLatency) != len(p.Images) {
			t.Fatal("check latency array mismatched")
		}
	}
}

// almanacGoodThreshold is the Web Almanac's "good performance" bar: a
// site that fully renders under 1.8 s.
const almanacGoodThreshold = 1800 * time.Millisecond

func TestAlmanacCalibration(t *testing.T) {
	sites := GenerateAlmanac(800, 42, 0.3, netsim.Fixed(50*time.Millisecond))
	if len(sites) != 800 {
		t.Fatalf("generated %d sites", len(sites))
	}
	var over25, under18 int
	renders := make([]time.Duration, len(sites))
	for i, s := range sites {
		r := Load(s.Plan, ModeOff, 6)
		renders[i] = r.FullRender
		if r.FullRender > AlmanacSlowThreshold {
			over25++
		}
		if r.FullRender < almanacGoodThreshold {
			under18++
		}
	}
	fracOver := float64(over25) / float64(len(sites))
	// Paper: "over 60% of studied sites take over 2.5s".
	if fracOver < 0.55 || fracOver > 0.9 {
		t.Errorf("%.1f%% of sites over 2.5s; want the paper's >60%% regime (median render %v)",
			fracOver*100, netsim.Quantile(renders, 0.5))
	}
	// And a meaningful fast cohort exists.
	if under18 == 0 {
		t.Error("no 'good performance' sites at all — distribution too slow")
	}
}

func TestAlmanacDeterministic(t *testing.T) {
	a := GenerateAlmanac(10, 7, 0.5, netsim.Fixed(time.Millisecond))
	b := GenerateAlmanac(10, 7, 0.5, netsim.Fixed(time.Millisecond))
	for i := range a {
		if a[i].Plan.HTMLLatency != b[i].Plan.HTMLLatency || len(a[i].Plan.Images) != len(b[i].Plan.Images) {
			t.Fatal("same seed differs")
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeOff.String() != "off" || ModePipelined.String() != "pipelined" || ModeBlocking.String() != "blocking" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "mode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func BenchmarkLoadPinterest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := PinterestSpec(netsim.Fixed(100 * time.Millisecond)).Sample(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Load(p, ModePipelined, 6)
	}
}
