// Command bench is the repository's end-to-end benchmark: one page
// view, one upload and one revocation through the real serving stack,
// in one process over loopback TCP, with every answer checked against
// the generator's ground truth. See README.md.
//
//	bash bench/run.sh -workload pageview_filtered -seed 1 -seconds 24
//	bash bench/run.sh -workload revoke_sync -seed 1 -seconds 24 -trace 1
//	bash bench/run.sh -aa 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: pageview_filtered, pageview_resolve, upload_ingest or revoke_sync")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 24, "how long to measure, in seconds (one timed block per second)")
		trace    = flag.Int("trace", 0, "1 records spans on every other block and prints the per-layer metrics")
		tmp      = flag.String("tmp", "", "directory for ledger files (default: the system temp dir)")
		spans    = flag.String("spans", "", "with -trace 1: write the last traced block's spans to this file as JSON")
		aa       = flag.Int("aa", 0, "A/A check: run two interleaved sets of this many runs per workload and compare them")
		spec     = flag.String("spec", "BENCHMARK.json", "with -aa: the file the bounds are read from")
	)
	flag.Parse()
	if *aa > 0 {
		os.Exit(runAA(*aa, *seed, *seconds, *tmp, *spec, os.Stdout))
	}
	w, ok := findWorkload(*workload)
	if !ok || flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench -workload <name> [-seed n] [-seconds n] [-trace 0|1] | -aa <k>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *tmp == "" {
		*tmp = os.TempDir()
	}
	res, err := run(w, fullScale, *seed, *seconds, *trace == 1, *tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *spans != "" && res.trace != nil {
		if err := writeSpans(*spans, res.trace.last); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	report(os.Stdout, w, res, *seed, *trace == 1)
	if res.failed > 0 {
		os.Exit(1)
	}
}

// report prints the run: a commented header, one line per metric, and
// the result object as the last line.
func report(out io.Writer, w workloadSpec, res *runResult, seed int64, traced bool) {
	fmt.Fprintf(out, "# workload %s (op = %s), seed %d, %d clients, %d blocks of %d ops\n",
		w.name, w.op, seed, res.clients, len(res.blocks), res.opsPerBlk)
	fmt.Fprintf(out, "# host: nproc %d, GOMAXPROCS %d, GOGC %s, %s, commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc(), runtime.Version(), commit())
	fmt.Fprintln(out, "# every tier runs in this one process over loopback TCP and the ledger's files sit in the")
	fmt.Fprintln(out, "# page cache: latencies are this sandbox's, not a device's or a WAN's")
	e2e, raw := res.endToEnd()
	fmt.Fprintf(out, "# host speed %.3f during the timed blocks, %.3f during set-up (1 = reference host); as measured:",
		res.blockSpeed(), hostSpeed(res.setupProbe))
	for _, name := range []string{"setup_s", "ops_per_s", "op_p50_ms", "op_p95_ms", "cpu_ms_per_op"} {
		fmt.Fprintf(out, " %s %.6g", name, raw[name])
	}
	fmt.Fprint(out, "\n# host probe medians, us (map+sort, ed25519, ping-pong, memory walk):")
	for _, med := range probeMedians(res.blockProbes()) {
		fmt.Fprintf(out, " %.0f", med.Seconds()*1e6)
	}
	fmt.Fprint(out, "\n# set-up repetitions, s:")
	for _, d := range res.setup {
		fmt.Fprintf(out, " %.3f", d.Seconds())
	}
	fmt.Fprint(out, "\n# block wall ms / cpu ms / op p50 us / op p95 us:")
	for i := range res.blocks {
		b := &res.blocks[i]
		lat := res.pooled([]int{i})
		fmt.Fprintf(out, " %.0f/%.0f/%.1f/%.1f", b.wall.Seconds()*1e3, b.delta.cpu.Seconds()*1e3,
			float64(quantile(lat, 0.5))/1e3, float64(quantile(lat, 0.95))/1e3)
	}
	fmt.Fprintln(out)
	metrics, list := e2e, endToEndMetrics
	if traced {
		fmt.Fprintln(out, "# traced run: spans on every other block; end-to-end figures below are for reference only")
		for _, m := range endToEndMetrics {
			fmt.Fprintf(out, "#   %-28s %14.6g %s\n", m.name, e2e[m.name], m.unit)
		}
		metrics, list = res.perLayer(), perLayerMetrics
		fmt.Fprintf(out, "# %d spans, %d orphans; blocking path of the median op by layer:\n", res.trace.spans, res.trace.orphans)
		for k := kind(0); k < numKinds; k++ {
			if v := medianUS(res.trace.path[k]); v > 0 {
				fmt.Fprintf(out, "#   %-24s %-10s %10.1f us\n", kindNames[k], kindLayer[k], v)
			}
		}
		fmt.Fprintln(out, "# waterfall of the median op of the last traced block (start offset, duration):")
		res.trace.waterfall(out)
	}
	quiet := res.quietHalf(res.blocksWhere(false))
	fmt.Fprintf(out, "# op latency percentiles pool the %d ops of the %d quieter blocks; fail_share %g (%d of %d ops)\n",
		len(res.pooled(quiet)), len(quiet), float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, make(map[string]value, len(list))}
	for _, m := range list {
		fmt.Fprintf(out, "%-40s %16.8g %s\n", m.name, metrics[m.name], m.unit)
		obj.Metrics[m.name] = value{metrics[m.name], m.unit}
	}
	line, err := json.Marshal(obj)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	fmt.Fprintf(out, "%s\n", line)
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100 (default)"
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (the benchmark's checkout usually is no repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func writeSpans(path string, spans []span) error {
	type row struct {
		Name   string `json:"name"`
		Op     int64  `json:"op"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int    `json:"parent"`
	}
	// One span per line, in recording order; parent is a line index.
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		name := kindNames[s.Kind]
		if s.Kind == kRPC || s.Kind == kWireHandler {
			name += "." + rpcNames[s.Sub]
		}
		if err := enc.Encode(row{name, s.Op, s.Start, s.End, s.Parent}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
