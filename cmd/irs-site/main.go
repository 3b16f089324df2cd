// Command irs-site runs an IRS-supporting content aggregator — the
// §3.2 "eventual solution" site as a real service: the upload pipeline
// (label checks, ledger validation, custodial claiming, robust-hash
// derivative defense), hosted serving with freshness proofs, and the
// periodic revalidation pass that takes revoked content down, and the
// §3.2 complaint desk for the copies the site claimed custodially.
//
// Usage:
//
//	irs-site -addr :8334 -ledger 1=http://localhost:8330 \
//	         -custodial-ledger 1 -recheck-interval 1h
//
// Endpoints: POST /v1/upload (IRSP body), GET /v1/photo?id=,
// POST /v1/recheck, GET /v1/stats, POST /v1/appeal (ComplaintRequest
// body). The appeal desk trusts the timestamps of every -ledger
// endpoint, whose keys it fetches at start.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"irs/internal/aggregator"
	"irs/internal/appeals"
	"irs/internal/core"
	"irs/internal/ids"
)

func main() {
	ledgers := core.Endpoints{}
	var (
		name            = flag.String("name", "irs-site", "site name for logs")
		addr            = flag.String("addr", ":8334", "listen address")
		custodial       = flag.Uint("custodial-ledger", 0, "ledger id for custodial claims (0 = reject unlabeled uploads)")
		recheckInterval = flag.Duration("recheck-interval", time.Hour, "hosted-content revalidation interval")
	)
	flag.Var(ledgers, "ledger", "ledger endpoint as id=url (repeatable)")
	flag.Parse()
	if len(ledgers) == 0 {
		fmt.Fprintln(os.Stderr, "irs-site: at least one -ledger id=url required")
		os.Exit(2)
	}
	if *recheckInterval <= 0 {
		fmt.Fprintf(os.Stderr, "irs-site: -recheck-interval must be positive (got %v)\n", *recheckInterval)
		os.Exit(2)
	}

	sys, err := core.Build(core.Spec{Remote: ledgers})
	if err != nil {
		log.Fatalf("irs-site: %v", err)
	}
	cfg := aggregator.Config{
		Name:            *name,
		Unlabeled:       aggregator.RejectUnlabeled,
		RecheckInterval: *recheckInterval,
	}
	if *custodial != 0 {
		if _, ok := ledgers[ids.LedgerID(*custodial)]; !ok {
			fmt.Fprintf(os.Stderr, "irs-site: -custodial-ledger %d is not among -ledger entries\n", *custodial)
			os.Exit(2)
		}
		cfg.Unlabeled = aggregator.CustodialClaim
	}
	agg, err := sys.NewAggregator(cfg, ids.LedgerID(*custodial))
	if err != nil {
		log.Fatalf("irs-site: %v", err)
	}
	desk, err := sys.NewSiteAdjudicator(agg, nil)
	if err != nil {
		log.Fatalf("irs-site: trusted ledgers: %v", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/appeal", appeals.NewServer(desk.Decide))
	mux.Handle("/", aggregator.NewServer(agg))

	go func() {
		t := time.NewTicker(*recheckInterval)
		defer t.Stop()
		for range t.C {
			down, err := agg.RecheckAll()
			if err != nil {
				log.Printf("irs-site: recheck: %v", err)
			}
			if down > 0 {
				log.Printf("irs-site: recheck took down %d revoked item(s); %d hosted", down, agg.HostedCount())
			}
		}
	}()

	log.Printf("irs-site: %q serving on %s (%d ledgers, custodial=%v, recheck every %s)",
		*name, *addr, len(ledgers), cfg.Unlabeled == aggregator.CustodialClaim, *recheckInterval)
	if err := core.Serve(*addr, mux); err != nil {
		log.Fatalf("irs-site: %v", err)
	}
}
