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
// Performance numbers come from `bash bench/run.sh`, not from this
// command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"irs/internal/expt"
	"irs/internal/parallel"
)

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale   = flag.String("scale", "full", "workload scale: quick or full")
		seed    = flag.Int64("seed", 42, "random seed")
		list    = flag.Bool("list", false, "list experiments and exit")
		workers = flag.Int("workers", 0, "worker pool width (0 = IRS_WORKERS env or GOMAXPROCS)")
	)
	flag.Parse()
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	if *list {
		for _, e := range expt.All() {
			fmt.Println(e.ID)
		}
		return
	}
	runExperiments(*run, *scale, *seed)
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
