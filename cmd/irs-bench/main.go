// Command irs-bench regenerates every table in the paper reproduction:
// one experiment per quantitative claim (the E1–E10 index in DESIGN.md)
// plus the design-choice ablations.
//
// Usage:
//
//	irs-bench -run all -scale full            # everything, full workloads
//	irs-bench -run e2,e4 -scale quick -seed 7 # a subset, fast
//	irs-bench -workers 8                      # pin the worker pool width
//	irs-bench -parallel-out BENCH_parallel.json -run e1,e5,e6 -scale quick,full
//	                                          # serial-vs-parallel timings
//	                                          # (comma-list sweeps scales)
//	irs-bench -serve -serve-out BENCH_serving.json
//	                                          # serving-path load harness
//	irs-bench -list                           # enumerate experiments
package main

import (
	"encoding/json"
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

// parallelTiming is one row of the -parallel-out report: the same
// experiment timed at workers=1 and at the configured pool width, with
// a byte-compare of the rendered tables as a determinism check.
type parallelTiming struct {
	Experiment    string  `json:"experiment"`
	Scale         string  `json:"scale"`
	Seed          int64   `json:"seed"`
	Workers       int     `json:"workers"`
	SerialMs      float64 `json:"serial_ms"`
	ParallelMs    float64 `json:"parallel_ms"`
	Speedup       float64 `json:"speedup"`
	OutputMatches bool    `json:"output_matches"`
}

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale   = flag.String("scale", "full", "workload scale: quick or full (with -parallel-out, a comma list sweeps)")
		seed    = flag.Int64("seed", 42, "random seed")
		list    = flag.Bool("list", false, "list experiments and exit")
		workers = flag.Int("workers", 0, "worker pool width (0 = IRS_WORKERS env or GOMAXPROCS)")
		parOut  = flag.String("parallel-out", "", "write serial-vs-parallel timings to this JSON file")

		serve        = flag.Bool("serve", false, "run the serving-path load harness instead of experiments")
		serveOut     = flag.String("serve-out", "BENCH_serving.json", "serving report path")
		serveWorkers = flag.Int("serve-workers", 8, "concurrent load-generator workers")
		serveIDs     = flag.Int("serve-ids", 4096, "claimed photo population per ledger")
		serveBatch   = flag.Int("serve-batch", 48, "identifiers per page (the browser model's page size)")
		servePages   = flag.Int("serve-pages", 60, "pages per worker per arm")
		serveRevoked = flag.Float64("serve-revoked", 0.1, "fraction of claims revoked at birth")
		serveZipf    = flag.Float64("serve-zipf", 1.1, "Zipf s parameter for view popularity (>1)")
		wireCodecs   = flag.String("wire", "json,binary", "comma-separated wire codecs for -serve and -topology arms (json|binary)")

		adversary        = flag.Bool("adversary", false, "run the adversarial workload suite (seeded attacks + benign control twins)")
		adversaryOut     = flag.String("adversary-out", "BENCH_adversary.json", "adversary report path")
		adversaryScaleF  = flag.String("adversary-scale", "full", "adversary workload scale: quick or full")
		adversaryEnforce = flag.Bool("adversary-enforce", true, "assert the wall-clock/availability envelope gates (decision gates always hold)")

		chaos       = flag.Bool("chaos", false, "run the fault-injection arm of the serving harness")
		chaosOut    = flag.String("chaos-out", "BENCH_chaos.json", "chaos report path")
		chaosOutage = flag.Float64("chaos-outage", 0.1, "fraction of each worker's pages inside the ledger outage window")

		obsCompare   = flag.Bool("obs-compare", false, "run the observability overhead guard (obs-on vs obs-off)")
		obsOut       = flag.String("obs-out", "BENCH_obs.json", "obs-compare report path")
		obsReps      = flag.Int("obs-reps", 3, "interleaved reps per arm (min-of-N p99)")
		obsTolerance = flag.Float64("obs-tolerance", 0.05, "allowed fractional p99 overhead of the instrumented arm")

		upload         = flag.Bool("upload", false, "run the upload-ingest (pipeline vs serial) harness")
		uploadOut      = flag.String("upload-out", "BENCH_upload.json", "upload report path")
		uploadBatches  = flag.String("upload-batches", "64,192", "comma-separated batch sizes")
		uploadWorkers  = flag.String("upload-workers", "1,2,4,8", "comma-separated pipeline worker counts")
		uploadDims     = flag.String("upload-dims", "192x128", "upload image dimensions WxH")
		uploadBaseline = flag.Float64("upload-baseline", 0, "externally measured serial images/sec for speedup_vs_baseline")

		storage       = flag.Bool("storage", false, "run the ledger storage-engine harness (equivalence-gated against an in-memory ledger)")
		storageOut    = flag.String("storage-out", "BENCH_storage.json", "storage report path")
		storageClaims = flag.Int("storage-claims", 10_000_000, "claim population per engine")
		storageBatch  = flag.Int("storage-batch", 4096, "records per ingest batch")
		storageReads  = flag.Int("storage-reads", 20000, "point lookups for the read-latency phase")
		storageMem    = flag.Int("storage-memtable", 1_000_000, "segment engine memtable flush threshold (records)")
		storageEquiv  = flag.Int("storage-equiv", 100_000, "claims in the state-equivalence gate run")
		storageDir    = flag.String("storage-dir", "", "scratch directory for ledger data (default: system temp, removed afterwards)")

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

	if *list {
		for _, e := range expt.All() {
			fmt.Println(e.ID)
		}
		return
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	if *topo {
		intervals, err := parseIntList("-topology-intervals", *topoIntervals)
		var codecs []wire.Codec
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
		if err != nil {
			fmt.Fprintf(os.Stderr, "irs-bench: topology: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *upload {
		batches, err := parseIntList("-upload-batches", *uploadBatches)
		if err == nil {
			var uw []int
			uw, err = parseIntList("-upload-workers", *uploadWorkers)
			if err == nil {
				var w, h int
				if _, serr := fmt.Sscanf(*uploadDims, "%dx%d", &w, &h); serr != nil || w < 32 || h < 32 {
					err = fmt.Errorf("bad -upload-dims %q", *uploadDims)
				} else {
					err = runUpload(uploadConfig{
						Out:      *uploadOut,
						Batches:  batches,
						Workers:  uw,
						Seed:     *seed,
						W:        w,
						H:        h,
						Baseline: *uploadBaseline,
					})
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "irs-bench: upload: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *storage {
		err := runStorage(storageConfig{
			Out:         *storageOut,
			Claims:      *storageClaims,
			Batch:       *storageBatch,
			Reads:       *storageReads,
			Memtable:    *storageMem,
			EquivClaims: *storageEquiv,
			Seed:        *seed,
			Dir:         *storageDir,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "irs-bench: storage: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *lookup {
		sizes, err := parseIntList("-lookup-sizes", *lookupSizes)
		if err == nil {
			var lw []int
			lw, err = parseIntList("-lookup-workers", *lookupWorkers)
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
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "irs-bench: lookup: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *obsCompare {
		err := runObsCompare(obsConfig{
			Out:       *obsOut,
			Workers:   *serveWorkers,
			IDs:       *serveIDs,
			Batch:     *serveBatch,
			Pages:     *servePages,
			Revoked:   *serveRevoked,
			Zipf:      *serveZipf,
			Seed:      *seed,
			Reps:      *obsReps,
			Tolerance: *obsTolerance,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "irs-bench: obs-compare: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *adversary {
		cfg, err := adversaryScale(*adversaryScaleF, *seed, *adversaryOut, *adversaryEnforce)
		if err == nil {
			_, err = runAdversary(cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "irs-bench: adversary: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *chaos {
		err := runChaos(chaosConfig{
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
		if err != nil {
			fmt.Fprintf(os.Stderr, "irs-bench: chaos: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *serve {
		codecs, err := parseWireList(*wireCodecs)
		if err == nil {
			err = runServe(serveConfig{
				Out:     *serveOut,
				Workers: *serveWorkers,
				IDs:     *serveIDs,
				Batch:   *serveBatch,
				Pages:   *servePages,
				Revoked: *serveRevoked,
				Zipf:    *serveZipf,
				Seed:    *seed,
				Wire:    codecs,
			})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "irs-bench: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var scales []expt.Scale
	scaleNames := strings.Split(*scale, ",")
	for _, name := range scaleNames {
		switch strings.TrimSpace(name) {
		case "quick":
			scales = append(scales, expt.Quick)
		case "full":
			scales = append(scales, expt.Full)
		default:
			fmt.Fprintf(os.Stderr, "irs-bench: bad -scale %q (quick|full)\n", name)
			os.Exit(2)
		}
	}
	if len(scales) > 1 && *parOut == "" {
		fmt.Fprintf(os.Stderr, "irs-bench: a -scale sweep needs -parallel-out\n")
		os.Exit(2)
	}
	sc := scales[0]

	var selected []string
	if *run == "all" {
		for _, e := range expt.All() {
			selected = append(selected, e.ID)
		}
	} else {
		selected = strings.Split(*run, ",")
	}

	failed := false
	var timings []parallelTiming
	for _, id := range selected {
		id = strings.TrimSpace(id)
		runner, ok := expt.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "irs-bench: unknown experiment %q (use -list)\n", id)
			failed = true
			continue
		}
		if *parOut != "" {
			for si, scv := range scales {
				t, err := timeSerialVsParallel(id, runner, scv, *seed)
				if err != nil {
					fmt.Fprintf(os.Stderr, "irs-bench: %s: %v\n", id, err)
					failed = true
					continue
				}
				t.Scale = strings.TrimSpace(scaleNames[si])
				timings = append(timings, t)
				fmt.Printf("%s@%s: serial %.0fms, parallel %.0fms (%d workers, %.2fx, identical=%v)\n",
					t.Experiment, t.Scale, t.SerialMs, t.ParallelMs, t.Workers, t.Speedup, t.OutputMatches)
			}
			continue
		}
		start := time.Now()
		report, err := runner(sc, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "irs-bench: %s: %v\n", id, err)
			failed = true
			continue
		}
		report.Fprint(os.Stdout)
		fmt.Printf("(%s ran in %s at scale=%s seed=%d)\n\n", id, time.Since(start).Round(time.Millisecond), *scale, *seed)
	}
	if *parOut != "" && len(timings) > 0 {
		data, err := json.MarshalIndent(timings, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "irs-bench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*parOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "irs-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *parOut)
	}
	if failed {
		os.Exit(1)
	}
}

// timeSerialVsParallel runs one experiment at workers=1 and at the
// configured pool width, returning wall-clock for both plus whether the
// rendered reports are byte-identical (the pool's core contract).
func timeSerialVsParallel(id string, runner expt.Runner, sc expt.Scale, seed int64) (parallelTiming, error) {
	render := func(w int) (string, time.Duration, error) {
		prev := parallel.SetWorkers(w)
		defer parallel.SetWorkers(prev)
		start := time.Now()
		r, err := runner(sc, seed)
		if err != nil {
			return "", 0, err
		}
		var sb strings.Builder
		r.Fprint(&sb)
		return sb.String(), time.Since(start), nil
	}
	serialOut, serialDur, err := render(1)
	if err != nil {
		return parallelTiming{}, err
	}
	w := parallel.Workers()
	parOut, parDur, err := render(w)
	if err != nil {
		return parallelTiming{}, err
	}
	return parallelTiming{
		Experiment:    id,
		Seed:          seed,
		Workers:       w,
		SerialMs:      float64(serialDur.Microseconds()) / 1000,
		ParallelMs:    float64(parDur.Microseconds()) / 1000,
		Speedup:       float64(serialDur) / float64(parDur),
		OutputMatches: parOut == serialOut,
	}, nil
}
