// Command irs-ledger runs an IRS ledger server: the timestamped claim
// database of paper §3.1, serving the HTTP protocol in internal/wire.
//
// Usage:
//
//	irs-ledger -id 1 -addr :8330 -dir ./ledger-data -admin-token sekrit
//
// The server publishes its first revocation Bloom filter epoch at
// start-up. After that a pull decides: a filter sync that finds the
// newest epoch stale (the revoked set changed and the epoch is at least
// a second old) publishes the next one before it answers (§4.4's
// update cycle, driven by change). Every write is fsynced before it is
// acknowledged.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"

	"irs/internal/appeals"
	"irs/internal/core"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

func main() {
	// trusted are the peer ledgers whose claim timestamps this ledger's
	// appeals desk accepts as complainant evidence.
	trusted := core.Endpoints{}
	var (
		id            = flag.Uint("id", 1, "ledger identifier (nonzero; rides in every issued photo id)")
		addr          = flag.String("addr", ":8330", "listen address")
		dir           = flag.String("dir", "", "persistence directory, which also keeps the ledger's keys across restarts (empty = in-memory, fresh keys)")
		adminToken    = flag.String("admin-token", "", "bearer token for the permanent-revoke admin endpoint (empty = disabled)")
		nonRevocable  = flag.Bool("non-revocable", false, "refuse revocation (§5 human-rights ledger policy)")
		fpr           = flag.Float64("filter-fpr", 0.02, "filter snapshot target false-positive rate")
		enableAppeals = flag.Bool("appeals", true, "serve the public /v1/appeal complaint endpoint")
		debug         = flag.Bool("debug", false, "mount GET /debug/metrics (Prometheus text) and /debug/pprof")
	)
	flag.Var(trusted, "trust-ledger", "peer ledger whose timestamps appeals accept, as id=url (repeatable)")
	flag.Parse()
	if *id == 0 {
		fmt.Fprintln(os.Stderr, "irs-ledger: -id must be nonzero")
		os.Exit(2)
	}

	lid := ids.LedgerID(*id)
	sys, err := core.Build(core.Spec{
		Ledgers: []ledger.Config{{
			ID:           lid,
			Dir:          *dir,
			NonRevocable: *nonRevocable,
			FilterFPR:    *fpr,
		}},
		Remote: trusted,
	})
	if err != nil {
		log.Fatalf("irs-ledger: %v", err)
	}
	l, _ := sys.Ledger(lid) // Build opened it

	// Initial snapshot so proxies can pull a filter immediately.
	if _, err := l.BuildSnapshot(); err != nil {
		log.Fatalf("irs-ledger: initial snapshot: %v", err)
	}

	handler := http.Handler(wire.NewServerOpts(l, *adminToken, wire.ServerOptions{Debug: *debug}))
	if *enableAppeals {
		adj, err := sys.NewAdjudicator(lid, nil)
		if err != nil {
			log.Fatalf("irs-ledger: trusted ledgers: %v", err)
		}
		for peerID, url := range trusted {
			log.Printf("irs-ledger: trusting timestamps from ledger %d (%s)", peerID, url)
		}
		mux := http.NewServeMux()
		mux.Handle("/v1/appeal", appeals.NewServer(adj.Decide))
		mux.Handle("/", handler)
		handler = mux
	}
	claims, revoked := l.Count()
	log.Printf("irs-ledger: ledger %d serving on %s (%d claims, %d revoked, dir=%q)",
		*id, *addr, claims, revoked, *dir)
	err = core.Serve(*addr, handler)
	if err := errors.Join(err, sys.Close()); err != nil {
		log.Fatalf("irs-ledger: %v", err)
	}
}
