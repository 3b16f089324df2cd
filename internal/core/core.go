// Package core is the public façade of the IRS reproduction: a complete
// Internet Revocation System wired together — ledgers, a proxy, content
// aggregators, owner cameras, the browser-extension viewing path, and
// the appeals process — behind one System type.
//
// A downstream user embeds IRS in three steps:
//
//	sys, _ := core.Build(core.Spec{Ledgers: []ledger.Config{{ID: 1}, {ID: 2}}})
//	alice, _ := sys.NewOwner(1)
//	labeled, owned, _ := alice.ClaimAndLabel(alice.Shoot(1, 256, 192))
//	... share labeled ...
//	_ = alice.Revoke(owned.ID)
//	sys.RefreshFilters()
//	dec := sys.View(labeled)   // dec.Display == false
//
// Build is the one assembly of the stack: the examples, the integration
// tests, the experiments and the cmd/ service binaries all describe
// their deployment as a Spec. Ledgers link in-process (wire.Loopback),
// over loopback HTTP, or to a remote URL; every link runs the same
// ledger, proxy, and aggregator code.
package core

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"log"
	"maps"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"irs/internal/aggregator"
	"irs/internal/appeals"
	"irs/internal/camera"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/photo"
	"irs/internal/proxy"
	"irs/internal/watermark"
	"irs/internal/wire"
)

// Spec describes a deployment. It holds the component configurations
// themselves; Build adds only the links between them.
type Spec struct {
	// Ledgers are the ledgers this process runs (IDs nonzero and
	// distinct; an empty Dir keeps one in memory).
	Ledgers []ledger.Config
	// Remote lists ledgers run elsewhere by base URL; each is linked
	// through a wire.Client.
	Remote Endpoints
	// HTTP serves every local ledger and the proxy on a loopback
	// listener and links the ledgers through wire.Client, as separate
	// services would be; false links them in-process (wire.Loopback).
	HTTP bool
	// Proxy configures the validation proxy in front of the directory;
	// nil means a filter-fronted proxy with a 4096-entry proof cache.
	Proxy *proxy.Config
	// AdminToken guards the permanent-revoke endpoint of the ledgers
	// served over HTTP, and is presented by every wire.Client linked.
	AdminToken string
	// BrowserFilter additionally holds the revocation filters inside
	// the browser itself — §4.4: "during early adoption, when the photo
	// population is small ..., one could use the same strategy to
	// reduce the load on the proxies by inserting a Bloom filter in
	// browsers themselves." Filter misses then never leave the device.
	BrowserFilter bool
	// Clock fills every nil component clock; nil means time.Now.
	// Experiments inject virtual clocks.
	Clock func() time.Time
}

// System is a built IRS deployment.
type System struct {
	spec      Spec
	ledgers   map[ids.LedgerID]*ledger.Ledger
	urls      map[ids.LedgerID]string
	directory *wire.Directory
	proxy     *proxy.Server
	proxyURL  string
	// servers are the loopback listeners of HTTP mode, ledgers first.
	servers []*http.Server
	// browserVal is the optional in-browser filter layer; its "ledger
	// queries" are requests to the proxy.
	browserVal *proxy.Validator
}

// Build opens the spec's ledgers, links each into one directory, and
// puts a proxy.Server in front of it. On error everything opened so far
// is closed again.
func Build(spec Spec) (_ *System, err error) {
	if len(spec.Ledgers)+len(spec.Remote) == 0 {
		return nil, errors.New("core: at least one ledger required")
	}
	s := &System{
		spec:      spec,
		ledgers:   make(map[ids.LedgerID]*ledger.Ledger),
		urls:      make(map[ids.LedgerID]string),
		directory: wire.NewDirectory(),
	}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	for _, cfg := range spec.Ledgers {
		if err := s.open(cfg); err != nil {
			return nil, err
		}
	}
	for id, url := range spec.Remote {
		if _, dup := s.urls[id]; dup {
			return nil, fmt.Errorf("core: ledger %d is both local and remote", id)
		}
		s.link(id, url)
	}
	pcfg := proxy.Config{CacheCapacity: 4096, UseFilter: true}
	if spec.Proxy != nil {
		pcfg = *spec.Proxy
	}
	if pcfg.Clock == nil {
		pcfg.Clock = spec.Clock
	}
	s.proxy = proxy.NewServer(pcfg, s.directory)
	if spec.HTTP {
		if s.proxyURL, err = s.serve(s.proxy); err != nil {
			return nil, err
		}
	}
	if spec.BrowserFilter {
		// The browser layer has no proof cache of its own (the proxy
		// caches); its upstream "query" is the proxy.
		s.browserVal = proxy.NewValidator(proxy.Config{
			UseFilter: true,
			Clock:     spec.Clock,
		}, func(_ ids.LedgerID, batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
			results, err := s.proxy.Validator().ValidateBatch(batch)
			if err != nil {
				return nil, err
			}
			proofs := make([]*ledger.StatusProof, len(results))
			for i, res := range results {
				proofs[i] = res.Proof
				if proofs[i] == nil {
					// Filter-miss answers carry no proof; synthesize the
					// state for the caller. IssuedAt is zero: there is no
					// ledger attestation to misrepresent.
					proofs[i] = &ledger.StatusProof{ID: batch[i], State: res.State}
				}
			}
			return proofs, nil
		})
	}
	return s, nil
}

// open starts one local ledger and links it into the directory.
func (s *System) open(cfg ledger.Config) error {
	if _, dup := s.ledgers[cfg.ID]; dup {
		return fmt.Errorf("core: ledger %d listed twice", cfg.ID)
	}
	if cfg.Clock == nil {
		cfg.Clock = s.spec.Clock
	}
	l, err := ledger.New(cfg)
	if err != nil {
		return err
	}
	s.ledgers[cfg.ID] = l
	if !s.spec.HTTP {
		s.urls[cfg.ID] = fmt.Sprintf("irs://ledger/%d", cfg.ID)
		s.directory.Register(cfg.ID, &wire.Loopback{L: l})
		return nil
	}
	url, err := s.serve(wire.NewServer(l, s.spec.AdminToken))
	if err == nil {
		s.link(cfg.ID, url)
	}
	return err
}

func (s *System) link(id ids.LedgerID, url string) {
	s.urls[id] = url
	s.directory.Register(id, wire.NewClient(url, s.spec.AdminToken))
}

// serve starts h on a loopback listener and returns its base URL.
func (s *System) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := newServer(h)
	go srv.Serve(ln)
	s.servers = append(s.servers, srv)
	return "http://" + ln.Addr().String(), nil
}

// Close shuts down the HTTP listeners, proxy first, letting requests in
// flight finish, then closes the ledgers.
func (s *System) Close() error {
	var errs []error
	for i := len(s.servers) - 1; i >= 0; i-- {
		errs = append(errs, shutdown(s.servers[i]))
	}
	for _, l := range s.ledgers {
		errs = append(errs, l.Close())
	}
	return errors.Join(errs...)
}

// Ledger returns a local ledger by ID.
func (s *System) Ledger(id ids.LedgerID) (*ledger.Ledger, error) {
	l, ok := s.ledgers[id]
	if !ok {
		return nil, fmt.Errorf("core: no ledger %d", id)
	}
	return l, nil
}

// URL is the base URL of a ledger: its loopback listener in HTTP mode,
// its Remote entry, or irs://ledger/<id> when linked in-process. Owners
// label with it.
func (s *System) URL(id ids.LedgerID) string { return s.urls[id] }

// ProxyURL is the proxy's loopback base URL in HTTP mode, else "".
func (s *System) ProxyURL() string { return s.proxyURL }

// Directory exposes the ledger directory for components that validate.
func (s *System) Directory() *wire.Directory { return s.directory }

// Proxy exposes the validation proxy.
func (s *System) Proxy() *proxy.Server { return s.proxy }

// NewOwner creates owner-side camera software claiming on the given
// ledger through its directory service.
func (s *System) NewOwner(ledgerID ids.LedgerID) (*camera.Camera, error) {
	svc, err := s.directory.ForLedger(ledgerID)
	if err != nil {
		return nil, err
	}
	return camera.New(svc, s.urls[ledgerID], nil), nil
}

// NewAggregator creates an IRS-supporting content aggregator validating
// against this system's directory. Custodial claims go to
// custodialLedger's directory service; a nil cfg.Clock takes the spec's.
func (s *System) NewAggregator(cfg aggregator.Config, custodialLedger ids.LedgerID) (*aggregator.Aggregator, error) {
	if cfg.Clock == nil {
		cfg.Clock = s.spec.Clock
	}
	if svc, err := s.directory.ForLedger(custodialLedger); err == nil {
		cfg.CustodialLedger = svc
		cfg.CustodialLedgerURL = s.urls[custodialLedger]
	} else if cfg.Unlabeled == aggregator.CustodialClaim {
		return nil, fmt.Errorf("core: no ledger %d for custodial claims", custodialLedger)
	}
	return aggregator.New(cfg, s.directory)
}

// NewAdjudicator creates the appeals adjudicator for claims on the given
// local ledger, trusting every ledger in the directory as a timestamp
// source (see trustDirectory).
func (s *System) NewAdjudicator(ledgerID ids.LedgerID, review appeals.ReviewFunc) (*appeals.Adjudicator, error) {
	l, err := s.Ledger(ledgerID)
	if err != nil {
		return nil, err
	}
	adj := appeals.NewAdjudicator(l, review)
	if err := s.trustDirectory(adj.TrustLedger); err != nil {
		return nil, err
	}
	return adj, nil
}

// NewSiteAdjudicator creates the appeals desk of a site built on this
// system, revoking through agg's custodial ledger and trusting every
// ledger in the directory as a timestamp source (see trustDirectory).
func (s *System) NewSiteAdjudicator(agg *aggregator.Aggregator, review appeals.ReviewFunc) (*appeals.SiteAdjudicator, error) {
	adj := appeals.NewSiteAdjudicator(agg, agg.CustodialLedger(), review)
	if err := s.trustDirectory(adj.TrustLedger); err != nil {
		return nil, err
	}
	return adj, nil
}

// trustDirectory hands trust every directory ledger's timestamp key
// (remote ones answer with their keys over the wire). An entry whose
// keys name another ledger is refused: its timestamps are not that
// ledger's evidence.
func (s *System) trustDirectory(trust func(ids.LedgerID, ed25519.PublicKey)) error {
	for id, svc := range s.directory.All() {
		keys, err := svc.Keys()
		if err != nil {
			return fmt.Errorf("core: keys of ledger %d at %s: %w", id, s.urls[id], err)
		}
		if ids.LedgerID(keys.LedgerID) != id {
			return fmt.Errorf("core: ledger %d at %s answers with the keys of ledger %d", id, s.urls[id], keys.LedgerID)
		}
		trust(id, keys.TimestampKey)
	}
	return nil
}

// FilterRefreshPeriod is how often a deployed filter holder (irs-proxy,
// an irs-relay egress) pulls its ledgers' filters. A pull publishes a
// stale epoch first (ledger.Ledger.PublishIfStale), so a revoke reaches
// such a holder within this period, the ledger's one-second epoch gap
// and a round trip. It stays well under the 25 s that a ledger's
// default 25 retained epochs span at one epoch a second, so a holder
// that polls always gets a delta.
const FilterRefreshPeriod = 5 * time.Second

// RefreshFilters rebuilds every local ledger's revocation filter
// snapshot and pulls the filters into the proxy — one round of §4.4's
// update cycle, published explicitly. The browser-resident filter, when enabled, pulls from the proxy
// and never from a ledger: a browser is a sync client of its proxy
// alone.
func (s *System) RefreshFilters() error {
	for _, l := range s.ledgers {
		if _, err := l.BuildSnapshot(); err != nil {
			return err
		}
	}
	pv := s.proxy.Validator()
	if err := pv.RefreshFilters(s.directory); err != nil {
		return err
	}
	if s.browserVal == nil {
		return nil
	}
	for _, lid := range slices.Sorted(maps.Keys(s.directory.All())) {
		up := func(from uint64, baseHash []byte) ([]byte, uint64, error) {
			return pv.FilterSync(lid, from, baseHash)
		}
		if _, _, err := s.browserVal.Pull(lid, up); err != nil {
			return fmt.Errorf("core: browser filter of ledger %d: %w", lid, err)
		}
	}
	return nil
}

// PullFilters runs RefreshFilters every FilterRefreshPeriod for the
// life of the process, logging under name a failed pull and each change
// of the epochs the proxy holds. A deployed filter holder starts it
// after its first refresh.
func (s *System) PullFilters(name string) {
	held := s.filterEpochs()
	for range time.Tick(FilterRefreshPeriod) {
		if err := s.RefreshFilters(); err != nil {
			log.Printf("%s: filter refresh: %v", name, err)
		} else if now := s.filterEpochs(); !maps.Equal(now, held) {
			log.Printf("%s: filter epochs %v", name, now)
			held = now
		}
	}
}

// filterEpochs is the filter epoch the proxy holds per ledger of the
// directory, 0 for none.
func (s *System) filterEpochs() map[ids.LedgerID]uint64 {
	epochs := make(map[ids.LedgerID]uint64)
	for lid := range s.directory.All() {
		epochs[lid] = s.proxy.Validator().Epoch(lid)
	}
	return epochs
}

// ViewDecision is the browser extension's verdict on a photo.
type ViewDecision struct {
	// Display says whether the photo may be shown.
	Display bool
	// Reason explains the decision.
	Reason string
	// ID is the label's identifier when one was found.
	ID ids.PhotoID
	// Source reports how the validation was answered (filter, cache, or
	// ledger) when a check ran.
	Source proxy.Source
}

// View runs the browser-extension path on a photo: extract the label
// (metadata first, watermark as fallback when metadata was stripped) and
// validate through the proxy. Unlabeled photos display — the bootstrap
// extension can only act on labeled content (Goal #3 is about informed
// behaviour, not blanket blocking).
func (s *System) View(im *photo.Image) ViewDecision {
	id, found := s.extractID(im)
	if !found {
		return ViewDecision{Display: true, Reason: "unlabeled"}
	}
	val := s.proxy.Validator()
	if s.browserVal != nil {
		val = s.browserVal
	}
	res, err := val.Validate(id)
	if err != nil {
		// Default-deny on validation failure: the extension must not
		// show content it cannot vet (Goal #3).
		return ViewDecision{Display: false, Reason: fmt.Sprintf("validation failed: %v", err), ID: id}
	}
	if res.State == ledger.StateActive {
		return ViewDecision{Display: true, Reason: "active", ID: id, Source: res.Source}
	}
	return ViewDecision{Display: false, Reason: res.State.String(), ID: id, Source: res.Source}
}

func (s *System) extractID(im *photo.Image) (ids.PhotoID, bool) {
	if raw := im.Meta.Get(photo.KeyIRSID); raw != "" {
		if id, err := ids.Parse(raw); err == nil {
			return id, true
		}
	}
	if res, err := watermark.ExtractFallback(im, watermark.DefaultConfig()); err == nil {
		return ids.FromBytes(res.Payload), true
	}
	return ids.PhotoID{}, false
}

// Endpoints maps ledger IDs to service base URLs. As a flag.Value it
// collects repeated id=url flags, refusing a zero or non-numeric id, an
// empty URL, and an id given twice.
type Endpoints map[ids.LedgerID]string

// String implements flag.Value.
func (e Endpoints) String() string { return fmt.Sprintf("%v", map[ids.LedgerID]string(e)) }

// Set implements flag.Value.
func (e Endpoints) Set(v string) error {
	id, url, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want id=url, got %q", v)
	}
	n, err := strconv.ParseUint(id, 10, 32)
	if err != nil || n == 0 {
		return fmt.Errorf("bad ledger id %q", id)
	}
	lid := ids.LedgerID(n)
	if url == "" {
		return fmt.Errorf("ledger %d: empty url", lid)
	}
	if prev, dup := e[lid]; dup {
		return fmt.Errorf("ledger %d given twice (%s and %s)", lid, prev, url)
	}
	e[lid] = url
	return nil
}

// shutdownGrace bounds how long a stopping server waits for the requests
// in flight.
const shutdownGrace = 10 * time.Second

func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
}

// shutdown stops srv, waiting up to shutdownGrace for its handlers.
func shutdown(srv *http.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	return srv.Shutdown(ctx)
}

// Serve runs h on addr until the process receives SIGINT or SIGTERM,
// then shuts down: it stops accepting, waits for the requests in flight
// (up to shutdownGrace) and only then returns, so the caller may close
// what the handlers read.
func Serve(addr string, h http.Handler) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serve(ctx, ln, h)
}

func serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := newServer(h)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Printf("stopping: draining requests in flight on %s", ln.Addr())
		return shutdown(srv)
	}
}
