// Command irs-relay runs one hop of the oblivious validation path
// (paper §4.2, the ODoH/Private Relay structure).
//
// Egress mode decrypts sealed queries and resolves them against a
// proxy-style validator backed by the configured ledgers; it never sees
// client identity:
//
//	irs-relay -mode egress -addr :8332 -ledger 1=http://localhost:8330
//
// An egress pulls its ledgers' filters each core.FilterRefreshPeriod,
// as irs-proxy does.
//
// Ingress mode forwards sealed blobs to an egress with all client
// identification stripped; it never sees the query:
//
//	irs-relay -mode ingress -addr :8333 -egress http://localhost:8332
package main

import (
	"flag"
	"fmt"
	"log"
	"maps"
	"net/http"
	"os"
	"time"

	"irs/internal/core"
	"irs/internal/proxy"
	"irs/internal/relay"
)

func main() {
	ledgers := core.Endpoints{}
	var (
		mode      = flag.String("mode", "", "egress or ingress")
		addr      = flag.String("addr", ":8332", "listen address")
		egressURL = flag.String("egress", "", "egress base URL (ingress mode)")
	)
	flag.Var(ledgers, "ledger", "ledger endpoint as id=url (egress mode, repeatable)")
	flag.Parse()

	var handler http.Handler
	switch *mode {
	case "egress":
		if len(ledgers) == 0 {
			fmt.Fprintln(os.Stderr, "irs-relay: egress mode needs at least one -ledger id=url")
			os.Exit(2)
		}
		// The same proxy role as irs-proxy, answering the egress.
		sys, err := core.Build(core.Spec{
			Remote: ledgers,
			Proxy:  &proxy.Config{UseFilter: true, CacheCapacity: 65536},
		})
		if err != nil {
			log.Fatalf("irs-relay: %v", err)
		}
		if err := sys.RefreshFilters(); err != nil {
			log.Printf("irs-relay: initial filter refresh: %v (continuing)", err)
		}
		go func() {
			held := sys.FilterEpochs()
			for range time.Tick(core.FilterRefreshPeriod) {
				if err := sys.RefreshFilters(); err != nil {
					log.Printf("irs-relay: filter refresh: %v", err)
				} else if now := sys.FilterEpochs(); !maps.Equal(now, held) {
					log.Printf("irs-relay: filter epochs %v", now)
					held = now
				}
			}
		}()
		eg, err := relay.NewEgress(sys.Proxy().Validator().Resolve)
		if err != nil {
			log.Fatalf("irs-relay: %v", err)
		}
		handler = relay.NewEgressServer(eg)
		log.Printf("irs-relay: egress serving on %s for %d ledgers (key at /v1/relay-key)", *addr, len(ledgers))

	case "ingress":
		if *egressURL == "" {
			fmt.Fprintln(os.Stderr, "irs-relay: ingress mode needs -egress")
			os.Exit(2)
		}
		handler = relay.NewIngress(*egressURL)
		log.Printf("irs-relay: ingress serving on %s, forwarding to %s", *addr, *egressURL)

	default:
		fmt.Fprintln(os.Stderr, "irs-relay: -mode must be egress or ingress")
		os.Exit(2)
	}

	if err := core.Serve(*addr, handler); err != nil {
		log.Fatalf("irs-relay: %v", err)
	}
}
