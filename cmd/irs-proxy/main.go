// Command irs-proxy runs an IRS validation proxy: the privacy-, cache-,
// and filter-layer of the bootstrap design (paper §4).
//
// Usage:
//
//	irs-proxy -addr :8331 -ledger 1=http://localhost:8330 \
//	          -ledger 2=http://localhost:8340
//
// Browsers point their extension at /v1/validate?id=...; the proxy
// answers from its aggregated revocation filters when it can (definitely
// not revoked), from its proof cache next, and queries the issuing
// ledger only as a last resort. It pulls every ledger's filter each
// core.FilterRefreshPeriod; a pull that finds the ledger's newest epoch
// stale publishes the next one first, so a revoke reaches the filter
// within seconds.
package main

import (
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"time"

	"irs/internal/core"
	"irs/internal/proxy"
)

func main() {
	ledgers := core.Endpoints{}
	var (
		addr     = flag.String("addr", ":8331", "listen address")
		cacheCap = flag.Int("cache", 65536, "proof cache capacity (entries)")
		cacheTTL = flag.Duration("cache-ttl", 5*time.Minute, "proof cache TTL (revocation propagation bound)")
	)
	flag.Var(ledgers, "ledger", "ledger endpoint as id=url (repeatable)")
	flag.Parse()
	if len(ledgers) == 0 {
		fmt.Fprintln(os.Stderr, "irs-proxy: at least one -ledger id=url required")
		os.Exit(2)
	}

	sys, err := core.Build(core.Spec{
		Remote: ledgers,
		Proxy:  &proxy.Config{CacheCapacity: *cacheCap, CacheTTL: *cacheTTL, UseFilter: true},
	})
	if err != nil {
		log.Fatalf("irs-proxy: %v", err)
	}
	if err := sys.RefreshFilters(); err != nil {
		log.Printf("irs-proxy: initial filter refresh: %v (continuing; filters refresh every %v)", err, core.FilterRefreshPeriod)
	}
	go func() {
		held := sys.FilterEpochs()
		for range time.Tick(core.FilterRefreshPeriod) {
			if err := sys.RefreshFilters(); err != nil {
				log.Printf("irs-proxy: filter refresh: %v", err)
			} else if now := sys.FilterEpochs(); !maps.Equal(now, held) {
				log.Printf("irs-proxy: filter epochs %v", now)
				held = now
			}
		}
	}()
	log.Printf("irs-proxy: serving on %s for %d ledgers", *addr, len(ledgers))
	if err := core.Serve(*addr, sys.Proxy()); err != nil {
		log.Fatalf("irs-proxy: %v", err)
	}
}
