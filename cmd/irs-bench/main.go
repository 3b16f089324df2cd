// Command irs-bench regenerates every table in the paper reproduction:
// one experiment per quantitative claim (the E1–E10 index in DESIGN.md)
// plus the design-choice ablations.
//
// Usage:
//
//	irs-bench -run all -scale full            # everything, full workloads
//	irs-bench -run e2,e4 -scale quick -seed 7 # a subset, fast
//	irs-bench -workers 8                      # pin the worker pool width
//	irs-bench -list                           # enumerate experiments
//
// One of -chaos, -adversary, -lookup or -topology runs that harness
// instead of experiments. Performance numbers come from
// `bash bench/run.sh`, not from this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"irs/internal/expt"
	"irs/internal/parallel"
	"irs/internal/wire"
)

// parseWireList parses the -wire flag: a comma list of codec names,
// deduplicated, order preserved.
func parseWireList(s string) ([]wire.Codec, error) {
	var codecs []wire.Codec
	seen := map[wire.Codec]bool{}
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c, err := wire.ParseCodec(name)
		if err != nil {
			return nil, fmt.Errorf("-wire: %w", err)
		}
		if !seen[c] {
			seen[c] = true
			codecs = append(codecs, c)
		}
	}
	if len(codecs) == 0 {
		return nil, fmt.Errorf("-wire: empty codec list")
	}
	return codecs, nil
}

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale   = flag.String("scale", "full", "workload scale: quick or full")
		seed    = flag.Int64("seed", 42, "random seed")
		list    = flag.Bool("list", false, "list experiments and exit")
		workers = flag.Int("workers", 0, "worker pool width (0 = IRS_WORKERS env or GOMAXPROCS)")

		serveWorkers = flag.Int("serve-workers", 8, "-chaos: concurrent load-generator workers")
		serveIDs     = flag.Int("serve-ids", 4096, "-chaos: claimed photo population per ledger")
		serveBatch   = flag.Int("serve-batch", 48, "-chaos: identifiers per page (the browser model's page size)")
		servePages   = flag.Int("serve-pages", 60, "-chaos: pages per worker per arm")
		serveRevoked = flag.Float64("serve-revoked", 0.1, "-chaos: fraction of claims revoked at birth")
		serveZipf    = flag.Float64("serve-zipf", 1.1, "-chaos: Zipf s parameter for view popularity (>1)")
		wireCodecs   = flag.String("wire", "json,binary", "comma-separated wire codecs for -topology arms (json|binary)")

		adversary        = flag.Bool("adversary", false, "run the adversarial workload suite (seeded attacks + benign control twins)")
		adversaryOut     = flag.String("adversary-out", "BENCH_adversary.json", "adversary report path")
		adversaryScaleF  = flag.String("adversary-scale", "full", "adversary workload scale: quick or full")
		adversaryEnforce = flag.Bool("adversary-enforce", true, "assert the wall-clock/availability envelope gates (decision gates always hold)")

		chaos       = flag.Bool("chaos", false, "run the fault-injection serving harness")
		chaosOut    = flag.String("chaos-out", "BENCH_chaos.json", "chaos report path")
		chaosOutage = flag.Float64("chaos-outage", 0.1, "fraction of each worker's pages inside the ledger outage window")

		lookup        = flag.Bool("lookup", false, "run the derivative-lookup (hash DB) harness")
		lookupOut     = flag.String("lookup-out", "BENCH_lookup.json", "lookup report path")
		lookupSizes   = flag.String("lookup-sizes", "10000,100000,250000", "comma-separated hash-DB sizes")
		lookupWorkers = flag.String("lookup-workers", "1,4,8", "comma-separated client worker counts")
		lookupProbes  = flag.Int("lookup-probes", 2000, "probes per size×arm×workers cell")
		lookupHit     = flag.Float64("lookup-hit", 0.1, "fraction of probes that are near-threshold derivatives")

		topo          = flag.Bool("topology", false, "run the multi-tier filter/replica distribution harness")
		topoOut       = flag.String("topology-out", "BENCH_topology.json", "topology report path")
		topoBrowsers  = flag.Int("topology-browsers", 1_200_000, "simulated browser population (modelled in aggregate)")
		topoIDs       = flag.Int("topology-ids", 50_000, "claim population on the origin ledger")
		topoRevoked   = flag.Float64("topology-revoked", 0.08, "fraction of claims revoked at birth")
		topoRegionals = flag.Int("topology-regionals", 3, "regional tier width (replicas + filter caches)")
		topoEdges     = flag.Int("topology-edges", 4, "edge proxies per regional")
		topoIntervals = flag.String("topology-intervals", "30,60,120,300", "comma-separated sync intervals (seconds) to sweep")
		topoWindow    = flag.Int("topology-window", 1800, "virtual seconds simulated per arm")
		topoRevokes   = flag.Int("topology-revokes", 50, "mid-run revocations (staleness probes)")
		topoBatch     = flag.Int("topology-batch", 48, "identifiers per page")
		topoPages     = flag.Float64("topology-pages", 6, "page views per browser per hour")
		topoSample    = flag.Int("topology-sample", 4, "pages actually validated per edge per virtual second")
		topoZipf      = flag.Float64("topology-zipf", 1.1, "Zipf s parameter for view popularity (>1)")
	)
	flag.Parse()

	// Exactly one mode runs; with none set, -run selects experiments.
	var modes []string
	for _, m := range []struct {
		name string
		set  bool
	}{{"-adversary", *adversary}, {"-chaos", *chaos}, {"-lookup", *lookup}, {"-topology", *topo}, {"-list", *list}} {
		if m.set {
			modes = append(modes, m.name)
		}
	}
	if len(modes) > 1 {
		fmt.Fprintf(os.Stderr, "irs-bench: %s are separate modes; pick one\n", strings.Join(modes, " and "))
		os.Exit(2)
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	var err error
	switch {
	case *list:
		for _, e := range expt.All() {
			fmt.Println(e.ID)
		}
		return
	case *topo:
		var intervals []int
		var codecs []wire.Codec
		intervals, err = parseIntList("-topology-intervals", *topoIntervals)
		if err == nil {
			codecs, err = parseWireList(*wireCodecs)
		}
		if err == nil {
			err = runTopology(topologyConfig{
				Wire:         codecs,
				Out:          *topoOut,
				Browsers:     *topoBrowsers,
				IDs:          *topoIDs,
				Revoked:      *topoRevoked,
				Regionals:    *topoRegionals,
				Edges:        *topoEdges,
				Intervals:    intervals,
				WindowSec:    *topoWindow,
				Revokes:      *topoRevokes,
				PageSize:     *topoBatch,
				PagesPerHour: *topoPages,
				SamplePages:  *topoSample,
				Zipf:         *topoZipf,
				Seed:         *seed,
			})
		}
	case *lookup:
		var sizes, lw []int
		sizes, err = parseIntList("-lookup-sizes", *lookupSizes)
		if err == nil {
			lw, err = parseIntList("-lookup-workers", *lookupWorkers)
		}
		if err == nil {
			err = runLookup(lookupConfig{
				Out:     *lookupOut,
				Sizes:   sizes,
				Workers: lw,
				Probes:  *lookupProbes,
				HitFrac: *lookupHit,
				Seed:    *seed,
			})
		}
	case *adversary:
		var cfg adversaryConfig
		cfg, err = adversaryScale(*adversaryScaleF, *seed, *adversaryOut, *adversaryEnforce)
		if err == nil {
			_, err = runAdversary(cfg)
		}
	case *chaos:
		err = runChaos(chaosConfig{
			Out:     *chaosOut,
			Workers: *serveWorkers,
			IDs:     *serveIDs,
			Batch:   *serveBatch,
			Pages:   *servePages,
			Revoked: *serveRevoked,
			Zipf:    *serveZipf,
			Outage:  *chaosOutage,
			Seed:    *seed,
		})
	default:
		runExperiments(*run, *scale, *seed)
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "irs-bench: %s: %v\n", strings.TrimPrefix(modes[0], "-"), err)
		os.Exit(1)
	}
}

// runExperiments prints the selected paper tables (-run) at one scale.
func runExperiments(run, scale string, seed int64) {
	var sc expt.Scale
	switch scale {
	case "quick":
		sc = expt.Quick
	case "full":
		sc = expt.Full
	default:
		fmt.Fprintf(os.Stderr, "irs-bench: bad -scale %q (quick|full)\n", scale)
		os.Exit(2)
	}

	var selected []string
	if run == "all" {
		for _, e := range expt.All() {
			selected = append(selected, e.ID)
		}
	} else {
		selected = strings.Split(run, ",")
	}

	failed := false
	for _, id := range selected {
		id = strings.TrimSpace(id)
		runner, ok := expt.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "irs-bench: unknown experiment %q (use -list)\n", id)
			failed = true
			continue
		}
		start := time.Now()
		report, err := runner(sc, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "irs-bench: %s: %v\n", id, err)
			failed = true
			continue
		}
		report.Fprint(os.Stdout)
		fmt.Printf("(%s ran in %s at scale=%s seed=%d)\n\n", id, time.Since(start).Round(time.Millisecond), scale, seed)
	}
	if failed {
		os.Exit(1)
	}
}
