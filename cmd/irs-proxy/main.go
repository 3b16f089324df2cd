// Command irs-proxy runs an IRS validation proxy: the privacy-, cache-,
// and filter-layer of the bootstrap design (paper §4).
//
// Usage:
//
//	irs-proxy -addr :8331 -ledger 1=http://localhost:8330 \
//	          -ledger 2=http://localhost:8340 -refresh-interval 1h
//
// Browsers point their extension at /v1/validate?id=...; the proxy
// answers from its aggregated revocation filters when it can (definitely
// not revoked), from its proof cache next, and queries the issuing
// ledger only as a last resort.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"irs/internal/ids"
	"irs/internal/proxy"
	"irs/internal/wire"
)

// ledgerList collects repeated -ledger id=url flags.
type ledgerList map[ids.LedgerID]string

func (l ledgerList) String() string { return fmt.Sprintf("%v", map[ids.LedgerID]string(l)) }

func (l ledgerList) Set(v string) error {
	id, url, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want id=url, got %q", v)
	}
	n, err := strconv.ParseUint(id, 10, 32)
	if err != nil || n == 0 {
		return fmt.Errorf("bad ledger id %q", id)
	}
	l[ids.LedgerID(n)] = url
	return nil
}

func main() {
	ledgers := ledgerList{}
	var (
		addr            = flag.String("addr", ":8331", "listen address")
		cacheCap        = flag.Int("cache", 65536, "proof cache capacity (entries)")
		cacheTTL        = flag.Duration("cache-ttl", 5*time.Minute, "proof cache TTL (revocation propagation bound)")
		refreshInterval = flag.Duration("refresh-interval", time.Hour, "ledger filter refresh interval")
	)
	flag.Var(ledgers, "ledger", "ledger endpoint as id=url (repeatable)")
	flag.Parse()
	if len(ledgers) == 0 {
		fmt.Fprintln(os.Stderr, "irs-proxy: at least one -ledger id=url required")
		os.Exit(2)
	}

	dir := wire.NewDirectory()
	for id, url := range ledgers {
		dir.Register(id, wire.NewClient(url, ""))
	}
	ps := proxy.NewServer(proxy.Config{
		CacheCapacity: *cacheCap,
		CacheTTL:      *cacheTTL,
		UseFilter:     true,
	}, dir)

	if err := ps.Validator().RefreshFilters(dir); err != nil {
		log.Printf("irs-proxy: initial filter refresh: %v (continuing; filters refresh on the timer)", err)
	}
	go func() {
		t := time.NewTicker(*refreshInterval)
		defer t.Stop()
		for range t.C {
			if err := ps.Validator().RefreshFilters(dir); err != nil {
				log.Printf("irs-proxy: filter refresh: %v", err)
			} else {
				log.Printf("irs-proxy: filters refreshed; stats %+v", ps.Validator().Stats())
			}
		}
	}()

	srv := &http.Server{Addr: *addr, Handler: ps, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("irs-proxy: shutting down")
		srv.Close()
	}()
	log.Printf("irs-proxy: serving on %s for %d ledgers", *addr, len(ledgers))
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("irs-proxy: %v", err)
	}
}
