// Command irs-ledger runs an IRS ledger server: the timestamped claim
// database of paper §3.1, serving the HTTP protocol in internal/wire.
//
// Usage:
//
//	irs-ledger -id 1 -addr :8330 -dir ./ledger-data \
//	           -snapshot-interval 1h -admin-token sekrit
//
// The server rebuilds its revocation Bloom filter snapshot on the
// configured interval (the paper's hourly cycle, §4.4) and syncs its
// write-ahead log on the same timer.
package main

import (
	"crypto/ed25519"
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

	"irs/internal/appeals"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

// trustList collects repeated -trust-ledger id=url flags: peer ledgers
// whose claim timestamps this ledger's appeals desk will accept as
// complainant evidence.
type trustList map[ids.LedgerID]string

func (l trustList) String() string { return fmt.Sprintf("%v", map[ids.LedgerID]string(l)) }

func (l trustList) Set(v string) error {
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
	trusted := trustList{}
	var (
		id            = flag.Uint("id", 1, "ledger identifier (nonzero; rides in every issued photo id)")
		addr          = flag.String("addr", ":8330", "listen address")
		dir           = flag.String("dir", "", "persistence directory (empty = in-memory)")
		adminToken    = flag.String("admin-token", "", "bearer token for the permanent-revoke admin endpoint (empty = disabled)")
		nonRevocable  = flag.Bool("non-revocable", false, "refuse revocation (§5 human-rights ledger policy)")
		snapInterval  = flag.Duration("snapshot-interval", time.Hour, "revocation filter snapshot rebuild interval")
		fpr           = flag.Float64("filter-fpr", 0.02, "filter snapshot target false-positive rate")
		enableAppeals = flag.Bool("appeals", true, "serve the public /v1/appeal complaint endpoint")
		debug         = flag.Bool("debug", false, "mount GET /debug/metrics (Prometheus text) and /debug/pprof")
		walSync       = flag.String("wal-sync", "os", "wal durability: os (fsync on the snapshot timer) or batch (group-commit fsync per append batch)")
	)
	flag.Var(trusted, "trust-ledger", "peer ledger whose timestamps appeals accept, as id=url (repeatable)")
	flag.Parse()
	if *id == 0 {
		fmt.Fprintln(os.Stderr, "irs-ledger: -id must be nonzero")
		os.Exit(2)
	}
	var sync ledger.WALSyncMode
	switch *walSync {
	case "os":
		sync = ledger.WALSyncOS
	case "batch":
		sync = ledger.WALSyncBatch
	default:
		fmt.Fprintf(os.Stderr, "irs-ledger: -wal-sync must be os or batch (got %q)\n", *walSync)
		os.Exit(2)
	}

	l, err := ledger.New(ledger.Config{
		ID:           ids.LedgerID(*id),
		Dir:          *dir,
		NonRevocable: *nonRevocable,
		FilterFPR:    *fpr,
		WALSync:      sync,
	})
	if err != nil {
		log.Fatalf("irs-ledger: %v", err)
	}
	defer l.Close()

	// Initial snapshot so proxies can pull a filter immediately.
	if _, err := l.BuildSnapshot(); err != nil {
		log.Fatalf("irs-ledger: initial snapshot: %v", err)
	}
	go func() {
		t := time.NewTicker(*snapInterval)
		defer t.Stop()
		for range t.C {
			if seq, err := l.BuildSnapshot(); err != nil {
				log.Printf("irs-ledger: snapshot: %v", err)
			} else {
				claims, revoked := l.Count()
				log.Printf("irs-ledger: snapshot epoch %d (%d claims, %d revoked)", seq, claims, revoked)
			}
			if err := l.Sync(); err != nil {
				log.Printf("irs-ledger: wal sync: %v", err)
			}
		}
	}()

	handler := http.Handler(wire.NewServerOpts(l, *adminToken, wire.ServerOptions{Debug: *debug}))
	if *enableAppeals {
		adj := appeals.NewAdjudicator(l, nil)
		for peerID, url := range trusted {
			keys, err := wire.NewClient(url, "").Keys()
			if err != nil {
				log.Fatalf("irs-ledger: fetching keys from trusted ledger %d at %s: %v", peerID, url, err)
			}
			adj.TrustLedger(peerID, ed25519.PublicKey(keys.TimestampKey))
			log.Printf("irs-ledger: trusting timestamps from ledger %d (%s)", peerID, url)
		}
		mux := http.NewServeMux()
		mux.Handle("/v1/appeal", appeals.NewServer(adj))
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("irs-ledger: shutting down")
		srv.Close()
	}()
	claims, revoked := l.Count()
	log.Printf("irs-ledger: ledger %d serving on %s (%d claims, %d revoked, dir=%q)",
		*id, *addr, claims, revoked, *dir)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("irs-ledger: %v", err)
	}
}
