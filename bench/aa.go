package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// A/A mode: the same binary measured as if it were two commits. Two
// sets of k runs per workload are interleaved in ABBA order, every run
// with its own seed, and each end-to-end metric's two medians are
// compared against the bound BENCHMARK.json gives it. A metric whose
// sets disagree by more than its bound, or whose spread within a set
// exceeds it, cannot tell a regression from noise; the check fails.

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// aaMetric is one metric's comparison on one workload.
type aaMetric struct {
	Metric string    `json:"metric"`
	Unit   string    `json:"unit"`
	A      []float64 `json:"a"`
	B      []float64 `json:"b"`
	// Quartiles as Python's statistics.quantiles(values, n=4) gives them.
	QuartilesA [3]float64 `json:"quartiles_a"`
	QuartilesB [3]float64 `json:"quartiles_b"`
	// Spread is (q3-q1)/median; Gap is how much worse B's median is than
	// A's, as a share of A's (negative: better).
	SpreadA float64 `json:"spread_a"`
	SpreadB float64 `json:"spread_b"`
	Gap     float64 `json:"gap"`
	Bound   float64 `json:"bound"`
	OK      bool    `json:"ok"`
}

type aaWorkload struct {
	Workload string     `json:"workload"`
	Failed   int        `json:"failed_ops"`
	Metrics  []aaMetric `json:"metrics"`
}

// quartiles follows CPython's statistics.quantiles(data, n=4), method
// "exclusive".
func quartiles(data []float64) (q [3]float64) {
	x := append([]float64(nil), data...)
	sort.Float64s(x)
	ld := len(x)
	if ld < 2 {
		if ld == 1 {
			return [3]float64{x[0], x[0], x[0]}
		}
		return q
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		q[i-1] = (x[j-1]*(n-delta) + x[j]*delta) / n
	}
	return q
}

func runAA(k int, seed int64, seconds int, tmp, specPath string, out io.Writer) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -aa:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench -aa:", specPath, err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -aa:", err)
		return 2
	}
	one := func(w string, seed int64) (map[string]float64, int, error) {
		args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds)}
		if tmp != "" {
			args = append(args, "-tmp", tmp)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, 0, fmt.Errorf("%s seed %d: %w", w, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var res struct {
			Failed  int `json:"failed"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, 0, fmt.Errorf("%s seed %d: last line: %w", w, seed, err)
		}
		vals := make(map[string]float64, len(res.Metrics))
		for name, v := range res.Metrics {
			vals[name] = v.Value
		}
		return vals, res.Failed, nil
	}

	allOK := true
	var report []aaWorkload
	for _, w := range workloads {
		sets := [2][]map[string]float64{}
		rep := aaWorkload{Workload: w.name}
		next := seed
		for i := 0; i < k; i++ {
			order := [2]int{0, 1} // A then B ...
			if i%2 == 1 {
				order = [2]int{1, 0} // ... then B then A
			}
			for _, side := range order {
				vals, failed, err := one(w.name, next)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench -aa:", err)
					return 1
				}
				next++
				rep.Failed += failed
				sets[side] = append(sets[side], vals)
				fmt.Fprintf(os.Stderr, "aa: %s run %d/%d done\n", w.name, len(sets[0])+len(sets[1]), 2*k)
			}
		}
		for _, m := range spec.EndToEnd {
			am := aaMetric{Metric: m.Name, Unit: m.Unit, Bound: m.Bound}
			for _, v := range sets[0] {
				am.A = append(am.A, v[m.Name])
			}
			for _, v := range sets[1] {
				am.B = append(am.B, v[m.Name])
			}
			am.QuartilesA, am.QuartilesB = quartiles(am.A), quartiles(am.B)
			ma, mb := am.QuartilesA[1], am.QuartilesB[1]
			am.SpreadA = (am.QuartilesA[2] - am.QuartilesA[0]) / ma
			am.SpreadB = (am.QuartilesB[2] - am.QuartilesB[0]) / mb
			am.Gap = (mb - ma) / ma
			if m.Better == "higher" {
				am.Gap = -am.Gap
			}
			worst := max(am.Gap, -am.Gap)
			// setup_s is held to the gap only: it is reported as a
			// median of several set-ups and carries the widest bound.
			am.OK = worst <= m.Bound && (m.Name == "setup_s" || max(am.SpreadA, am.SpreadB) <= m.Bound)
			allOK = allOK && am.OK
			rep.Metrics = append(rep.Metrics, am)
		}
		allOK = allOK && rep.Failed == 0
		report = append(report, rep)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Runs      int          `json:"runs_per_set"`
		Seconds   int          `json:"seconds"`
		FirstSeed int64        `json:"first_seed"`
		OK        bool         `json:"ok"`
		Workloads []aaWorkload `json:"workloads"`
	}{k, seconds, seed, allOK, report}); err != nil {
		fmt.Fprintln(os.Stderr, "bench -aa:", err)
		return 1
	}
	if !allOK {
		return 1
	}
	return 0
}
