package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The tests run every workload at tinyScale: the whole stack, all
// checks on, a few hundred ops.

type specFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesCode: BENCHMARK.json names exactly the workloads and
// metrics the code knows, with the same units.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
	}
	check := func(what string, want []metric, got func(i int) (string, string), n int) {
		if n != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", what, n, len(want))
		}
		seen := map[string]bool{}
		for i, m := range want {
			name, unit := got(i)
			if name != m.name || unit != m.unit {
				t.Errorf("%s metric %d: %s [%s] in BENCHMARK.json, %s [%s] in code", what, i, name, unit, m.name, m.unit)
			}
			if !nameRE.MatchString(m.name) {
				t.Errorf("%s metric name %q is outside [A-Za-z0-9_.-]", what, m.name)
			}
			if seen[m.name] {
				t.Errorf("%s metric %q named twice", what, m.name)
			}
			seen[m.name] = true
		}
	}
	check("end_to_end", endToEndMetrics, func(i int) (string, string) { return s.EndToEnd[i].Name, s.EndToEnd[i].Unit }, len(s.EndToEnd))
	check("per_layer", perLayerMetrics, func(i int) (string, string) { return s.PerLayer[i].Name, s.PerLayer[i].Unit }, len(s.PerLayer))
	setup := false
	for _, m := range s.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
}

// printed parses a report: the metric lines and the final object.
func printed(t *testing.T, out string) (lines map[string]string, obj map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	all := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(all[len(all)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result object: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	lines = map[string]string{}
	for _, l := range all[:len(all)-1] {
		if strings.HasPrefix(l, "#") {
			continue
		}
		f := strings.Fields(l)
		if len(f) != 3 {
			t.Errorf("metric line %q is not <name> <value> <unit>", l)
			continue
		}
		if _, dup := lines[f[0]]; dup {
			t.Errorf("metric %s printed twice", f[0])
		}
		lines[f[0]] = f[2]
	}
	return lines, res.Metrics
}

// TestWorkloads runs every workload twice with one seed, one block
// untraced and one traced each time, and checks what the issue asks of
// the output: every metric once with its unit in either report, no
// failed op, the count metrics identical between the two same-seed
// runs, and spans that nest under one root per op.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tmp := t.TempDir()
			traced, err := run(w, tinyScale, 7, 2, true, tmp)
			if err != nil {
				t.Fatal(err)
			}
			if traced.failed != 0 {
				t.Fatalf("%d failed ops", traced.failed)
			}

			for _, c := range []struct {
				res    *runResult
				traced bool
				want   []metric
			}{{traced, false, endToEndMetrics}, {traced, true, perLayerMetrics}} {
				var buf bytes.Buffer
				report(&buf, w, c.res, 7, c.traced)
				lines, obj := printed(t, buf.String())
				if len(lines) != len(c.want) || len(obj) != len(c.want) {
					t.Errorf("traced=%v: %d metric lines and %d object entries, want %d", c.traced, len(lines), len(obj), len(c.want))
				}
				for _, m := range c.want {
					if lines[m.name] != m.unit || obj[m.name].Unit != m.unit {
						t.Errorf("traced=%v: %s printed with unit %q / %q, want %q", c.traced, m.name, lines[m.name], obj[m.name].Unit, m.unit)
					}
				}
			}

			// Same seed, same counts.
			again, err := run(w, tinyScale, 7, 2, true, tmp)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := traced.endToEnd()
			b, _ := again.endToEnd()
			for _, name := range []string{"upstream_rpcs_per_op", "wire_bytes_per_op"} {
				if a[name] != b[name] || a["wire_bytes_per_op"] == 0 {
					t.Errorf("%s: %v and %v on two runs of one seed", name, a[name], b[name])
				}
			}
			la, lb := traced.perLayer(), again.perLayer()
			for name := range la {
				if strings.HasSuffix(name, "_share") || strings.Contains(name, "_share.") || strings.HasPrefix(name, "wire.rpcs_per_op") {
					if la[name] != lb[name] {
						t.Errorf("%s: %v and %v on two runs of one seed", name, la[name], lb[name])
					}
				}
			}
			if c := la["trace.coverage"]; c < 0.5 || c > 1.5 {
				t.Errorf("trace.coverage %v", c)
			}

			// Spans nest: every span but the roots has a parent that
			// encloses it, and every op has exactly one root.
			spans := traced.trace.last
			if len(spans) == 0 || traced.trace.orphans != 0 {
				t.Fatalf("%d spans, %d orphans", len(spans), traced.trace.orphans)
			}
			roots := map[int64]int{}
			for _, s := range spans {
				if s.Kind == kOp {
					roots[s.Op]++
					continue
				}
				if s.Parent < 0 {
					t.Fatalf("%s span without a parent", kindNames[s.Kind])
				}
				p := spans[s.Parent]
				if p.Start > s.Start || p.End < s.End || p.Op != s.Op {
					t.Fatalf("%s [%d,%d] op %d is not inside its parent %s [%d,%d] op %d",
						kindNames[s.Kind], s.Start, s.End, s.Op, kindNames[p.Kind], p.Start, p.End, p.Op)
				}
			}
			if len(roots) != traced.opsPerBlk {
				t.Errorf("%d ops have a root span, the block ran %d", len(roots), traced.opsPerBlk)
			}
			for op, n := range roots {
				if n != 1 {
					t.Errorf("op %d has %d roots", op, n)
				}
			}
		})
	}
}

// TestSeedChangesInputs: another seed, other identifiers.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		var first []string
		for _, seed := range []int64{7, 8, 7} {
			r, err := w.build(tinyScale, seed, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, id := range r.someIDs() {
				got = append(got, id.String())
			}
			r.close()
			joined := strings.Join(got, ",")
			switch {
			case first == nil:
				first = got
			case seed == 7 && joined != strings.Join(first, ","):
				t.Errorf("%s: seed 7 gave different inputs the second time", w.name)
			case seed == 8 && joined == strings.Join(first, ","):
				t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
			}
		}
	}
}

// TestLinkConcurrentOps: two ops whose handler spans overlap each own
// the RPC whose key is on their page, and blocking-path time adds up to
// the root's duration.
func TestLinkConcurrentOps(t *testing.T) {
	spans := []span{
		{Kind: kOp, Op: 0, Start: 0, End: 100, Parent: -1},
		{Kind: kHop1, Op: 0, Start: 1, End: 99, Parent: -1},
		{Kind: kProxyHandler, Op: 0, Start: 10, End: 90, Parent: -1},
		{Kind: kOp, Op: 1, Start: 5, End: 120, Parent: -1},
		{Kind: kHop1, Op: 1, Start: 6, End: 119, Parent: -1},
		{Kind: kProxyHandler, Op: 1, Start: 12, End: 110, Parent: -1},
		// Both handler spans enclose both RPCs; only the key tells them apart.
		{Kind: kRPC, Sub: rpcStatusBatch, Op: noOp, Key: 100, Start: 20, End: 60, Parent: -1},
		{Kind: kRPC, Sub: rpcStatusBatch, Op: noOp, Key: 101, Start: 22, End: 70, Parent: -1},
		{Kind: kWireHandler, Sub: rpcStatusBatch, Op: noOp, Start: 30, End: 50, Parent: -1},
	}
	keyInOp := func(op int64, key uint64) bool { return uint64(op)+100 == key }
	if orphans := link(spans, keyInOp); orphans != 0 {
		t.Fatalf("%d orphans", orphans)
	}
	if spans[6].Parent != 2 || spans[7].Parent != 5 {
		t.Errorf("RPC parents %d and %d, want 2 and 5", spans[6].Parent, spans[7].Parent)
	}
	if spans[8].Op != spans[spans[8].Parent].Op || spans[spans[8].Parent].Kind != kRPC {
		t.Errorf("server handler span linked to %+v", spans[spans[8].Parent])
	}
	kids := children(spans)
	for _, root := range []int{0, 3} {
		var per [numKinds]int64
		blockingPath(spans, kids, root, &per)
		var sum int64
		for _, v := range per {
			sum += v
		}
		if want := spans[root].End - spans[root].Start; sum != want {
			t.Errorf("op %d: blocking path sums to %d, root lasts %d", spans[root].Op, sum, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	want := [3]float64{3.5, 13.5, 31.0}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
