package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"irs/internal/wire"
)

// The three tests below run a harness in-process at the size
// scripts/check.sh used to `go run` it at, so the gates each harness
// enforces before it trusts a timing (a returned error) and the shape
// of the report it writes are tier-1 tests. -adversary's twin is
// TestAdversaryQuickDeterministicAndGated.

// readReport decodes the JSON document a harness wrote, refusing fields
// the report struct does not declare.
func readReport(t *testing.T, path string, into any) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("report file not written: %v", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		t.Fatalf("report file is not a well-formed report: %v", err)
	}
}

// TestLookupQuickArmsAgree: runLookup errors on the first probe where
// an indexed arm disagrees with the linear scan, so a nil error is the
// arms-agree gate over every size × arm × workers cell.
func TestLookupQuickArmsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20k-entry hash DB")
	}
	out := filepath.Join(t.TempDir(), "lookup.json")
	cfg := lookupConfig{
		Out:     out,
		Sizes:   []int{4000, 20000},
		Workers: []int{1, 4},
		Probes:  300,
		HitFrac: 0.1,
		Seed:    42,
	}
	if err := runLookup(cfg); err != nil {
		t.Fatal(err)
	}
	var report lookupReport
	readReport(t, out, &report)
	if report.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("gomaxprocs = %d, want %d", report.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if !report.ResultsIdentical {
		t.Error("results_identical is false on a run that returned no error")
	}
	// linear, indexed, indexed11 at every size × workers.
	if want := len(cfg.Sizes) * len(cfg.Workers) * 3; len(report.Rows) != want {
		t.Fatalf("%d rows, want %d", len(report.Rows), want)
	}
	hits := map[[2]int]int{}
	for _, row := range report.Rows {
		if !row.ResultsIdentical || row.NsPerLookup <= 0 {
			t.Errorf("row %+v: not identical or not timed", row)
		}
		cell := [2]int{row.Size, row.Workers}
		if prev, seen := hits[cell]; seen && prev != row.Hits {
			t.Errorf("size %d workers %d: arm %s has %d hits, another arm %d", row.Size, row.Workers, row.Arm, row.Hits, prev)
		}
		hits[cell] = row.Hits
	}
}

// TestTopologyQuickStateHashGate: runTopology errors when a replica's
// StateHash differs from the origin checkpoint or when codec twins
// decide differently, so a nil error is both gates over every arm.
func TestTopologyQuickStateHashGate(t *testing.T) {
	if testing.Short() {
		t.Skip("topology sweep is a multi-second workload")
	}
	out := filepath.Join(t.TempDir(), "topology.json")
	cfg := topologyConfig{
		Wire:         []wire.Codec{wire.CodecJSON, wire.CodecBinary},
		Out:          out,
		Browsers:     20000,
		IDs:          4000,
		Revoked:      0.08,
		Regionals:    3,
		Edges:        4,
		Intervals:    []int{30, 60},
		WindowSec:    300,
		Revokes:      8,
		PageSize:     48,
		PagesPerHour: 6,
		SamplePages:  2,
		Zipf:         1.1,
		Seed:         42,
	}
	if err := runTopology(cfg); err != nil {
		t.Fatal(err)
	}
	var report topologyReport
	readReport(t, out, &report)
	if report.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("gomaxprocs = %d, want %d", report.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	// One flat arm and one tiered arm per interval, each under both codecs.
	if want := (1 + len(cfg.Intervals)) * len(cfg.Wire); len(report.Arms) != want {
		t.Fatalf("%d arms, want %d", len(report.Arms), want)
	}
	tiered := 0
	for _, arm := range report.Arms {
		if arm.ReplicaGate == nil {
			continue // the flat arm has no replicas to gate
		}
		tiered++
		if g := arm.ReplicaGate; g.Replicas != cfg.Regionals || !g.AllReady || !g.StateHashMatch {
			t.Errorf("arm %s: replica gate %+v", arm.Arm, *g)
		}
	}
	if want := len(cfg.Intervals) * len(cfg.Wire); tiered != want {
		t.Errorf("%d arms carry a replica gate, want %d", tiered, want)
	}
	if report.OriginLoadReduction <= 0 {
		t.Errorf("origin load reduction %v not computed", report.OriginLoadReduction)
	}
}

// TestChaosQuickReport: every posture runs twice per seed, and both the
// request/outcome trace and the scheduling-independent metric view must
// repeat (the whole-registry replay is TestChaosObsDeterminism).
func TestChaosQuickReport(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos arms are a multi-second workload")
	}
	out := filepath.Join(t.TempDir(), "chaos.json")
	cfg := chaosConfig{
		Out:     out,
		Workers: 2,
		IDs:     256,
		Batch:   16,
		Pages:   20,
		Revoked: 0.1,
		Zipf:    1.1,
		Outage:  0.1,
		Seed:    42,
	}
	if err := runChaos(cfg); err != nil {
		t.Fatal(err)
	}
	var report chaosReport
	readReport(t, out, &report)
	if report.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("gomaxprocs = %d, want %d", report.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if len(report.Arms) != 4 {
		t.Fatalf("%d arms, want the 4 postures", len(report.Arms))
	}
	for _, arm := range report.Arms {
		if !arm.TraceStable || !arm.MetricsStable {
			t.Errorf("arm %s: trace_stable=%v metrics_stable=%v", arm.Arm, arm.TraceStable, arm.MetricsStable)
		}
		if arm.PagesTotal != cfg.Workers*cfg.Pages || arm.OutagePages == 0 {
			t.Errorf("arm %s: %d pages (%d in the outage), want %d with some in the outage",
				arm.Arm, arm.PagesTotal, arm.OutagePages, cfg.Workers*cfg.Pages)
		}
	}
}
