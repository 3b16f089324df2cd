// Package core is the public façade of the IRS reproduction: a complete
// Internet Revocation System wired together — ledgers, a proxy, content
// aggregators, owner cameras, the browser-extension viewing path, and
// the appeals process — behind one System type.
//
// A downstream user embeds IRS in three steps:
//
//	sys, _ := core.NewSystem(core.Options{Ledgers: 2})
//	alice := sys.NewOwner("ledger-1")
//	labeled, owned, _ := alice.ClaimAndLabel(alice.Shoot(1, 256, 192))
//	... share labeled ...
//	_ = alice.Revoke(owned.ID)
//	sys.RefreshFilters()
//	dec := sys.View(labeled)   // dec.Display == false
//
// System assembles in-process components (wire.Loopback); the cmd/
// binaries assemble the identical pieces over HTTP. Both paths exercise
// the same ledger, proxy, and aggregator code.
package core

import (
	"errors"
	"fmt"
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

// Options configures a local System.
type Options struct {
	// Ledgers is how many commercial ledgers to run (≥ 1). Ledger IDs
	// are 1..N.
	Ledgers int
	// DataDir persists ledger state under DataDir/ledger-<id>; empty
	// means in-memory.
	DataDir string
	// Clock drives every component; nil means time.Now. Experiments
	// inject virtual clocks.
	Clock func() time.Time
	// ProxyCache is the proxy's proof-cache capacity; 0 uses 4096.
	ProxyCache int
	// ProxyTTL is the proxy cache TTL (the revocation propagation
	// bound); 0 uses 5 minutes.
	ProxyTTL time.Duration
	// NonRevocableLedgers lists ledger IDs to run under the §5
	// human-rights policy.
	NonRevocableLedgers []ids.LedgerID
	// BrowserFilter additionally holds the revocation filters inside
	// the browser itself — §4.4: "during early adoption, when the photo
	// population is small ..., one could use the same strategy to
	// reduce the load on the proxies by inserting a Bloom filter in
	// browsers themselves." Filter misses then never leave the device.
	BrowserFilter bool
}

// System is a fully wired in-process IRS deployment.
type System struct {
	opts      Options
	ledgers   map[ids.LedgerID]*ledger.Ledger
	directory *wire.Directory
	validator *proxy.Validator
	// browserVal is the optional in-browser filter layer; its "ledger
	// queries" are requests to the proxy.
	browserVal *proxy.Validator
	wmCfg      watermark.Config
}

// NewSystem builds a System.
func NewSystem(opts Options) (*System, error) {
	if opts.Ledgers < 1 {
		return nil, errors.New("core: at least one ledger required")
	}
	nonRev := make(map[ids.LedgerID]bool)
	for _, id := range opts.NonRevocableLedgers {
		nonRev[id] = true
	}
	s := &System{
		opts:      opts,
		ledgers:   make(map[ids.LedgerID]*ledger.Ledger),
		directory: wire.NewDirectory(),
		wmCfg:     watermark.DefaultConfig(),
	}
	for i := 1; i <= opts.Ledgers; i++ {
		id := ids.LedgerID(i)
		cfg := ledger.Config{ID: id, Clock: opts.Clock, NonRevocable: nonRev[id]}
		if opts.DataDir != "" {
			cfg.Dir = fmt.Sprintf("%s/ledger-%d", opts.DataDir, i)
		}
		l, err := ledger.New(cfg)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.ledgers[id] = l
		s.directory.Register(id, &wire.Loopback{L: l})
	}
	cacheCap := opts.ProxyCache
	if cacheCap == 0 {
		cacheCap = 4096
	}
	s.validator = proxy.NewValidator(proxy.Config{
		CacheCapacity: cacheCap,
		CacheTTL:      opts.ProxyTTL,
		UseFilter:     true,
		Clock:         opts.Clock,
	}, func(id ids.PhotoID) (*ledger.StatusProof, error) {
		svc, err := s.directory.For(id)
		if err != nil {
			return nil, err
		}
		return svc.Status(id)
	})
	if opts.BrowserFilter {
		// The browser layer has no proof cache of its own (the proxy
		// caches); its upstream "query" is the proxy.
		s.browserVal = proxy.NewValidator(proxy.Config{
			UseFilter: true,
			Clock:     opts.Clock,
		}, func(id ids.PhotoID) (*ledger.StatusProof, error) {
			res, err := s.validator.Validate(id)
			if err != nil {
				return nil, err
			}
			if res.Proof != nil {
				return res.Proof, nil
			}
			// Filter-miss answers carry no proof; synthesize the state
			// for the caller. IssuedAt is zero: there is no ledger
			// attestation to misrepresent.
			return &ledger.StatusProof{ID: id, State: res.State}, nil
		})
	}
	return s, nil
}

// ProxyQueries reports how many validations reached the proxy — the
// quantity the §4.4 browser-resident filter reduces.
func (s *System) ProxyQueries() uint64 { return s.validator.Stats().Total }

// Close releases all ledgers.
func (s *System) Close() error {
	var firstErr error
	for _, l := range s.ledgers {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Ledger returns a ledger by ID.
func (s *System) Ledger(id ids.LedgerID) (*ledger.Ledger, error) {
	l, ok := s.ledgers[id]
	if !ok {
		return nil, fmt.Errorf("core: no ledger %d", id)
	}
	return l, nil
}

// Directory exposes the ledger directory for components that validate.
func (s *System) Directory() *wire.Directory { return s.directory }

// Proxy exposes the proxy validator.
func (s *System) Proxy() *proxy.Validator { return s.validator }

// NewOwner creates owner-side camera software claiming on the given
// ledger ("ledger-1" style names or numeric IDs 1..N map directly).
func (s *System) NewOwner(ledgerID ids.LedgerID) (*camera.Camera, error) {
	l, ok := s.ledgers[ledgerID]
	if !ok {
		return nil, fmt.Errorf("core: no ledger %d", ledgerID)
	}
	return camera.New(&wire.Loopback{L: l}, fmt.Sprintf("irs://ledger/%d", ledgerID), nil), nil
}

// NewAggregator creates an IRS-supporting content aggregator validating
// against this system's ledgers. Custodial claims go to custodialLedger.
func (s *System) NewAggregator(name string, policy aggregator.UnlabeledPolicy, custodialLedger ids.LedgerID) (*aggregator.Aggregator, error) {
	svc, ok := s.ledgers[custodialLedger]
	if !ok && policy == aggregator.CustodialClaim {
		return nil, fmt.Errorf("core: no ledger %d for custodial claims", custodialLedger)
	}
	cfg := aggregator.Config{
		Name:      name,
		Unlabeled: policy,
		Clock:     s.opts.Clock,
	}
	if ok {
		cfg.CustodialLedger = &wire.Loopback{L: svc}
		cfg.CustodialLedgerURL = fmt.Sprintf("irs://ledger/%d", custodialLedger)
	}
	return aggregator.New(cfg, s.directory)
}

// NewAdjudicator creates the appeals adjudicator for claims on the given
// ledger, trusting every ledger in the system as a timestamp source.
func (s *System) NewAdjudicator(ledgerID ids.LedgerID, review appeals.ReviewFunc) (*appeals.Adjudicator, error) {
	l, ok := s.ledgers[ledgerID]
	if !ok {
		return nil, fmt.Errorf("core: no ledger %d", ledgerID)
	}
	adj := appeals.NewAdjudicator(l, review)
	for id, other := range s.ledgers {
		adj.TrustLedger(id, other.TimestampKey())
	}
	return adj, nil
}

// RefreshFilters rebuilds every ledger's revocation filter snapshot and
// pulls them into the proxy (and, when enabled, the browser-resident
// filter) — the hourly cycle of §4.4.
func (s *System) RefreshFilters() error {
	for _, l := range s.ledgers {
		if _, err := l.BuildSnapshot(); err != nil {
			return err
		}
	}
	if err := s.validator.RefreshFilters(s.directory); err != nil {
		return err
	}
	if s.browserVal != nil {
		return s.browserVal.RefreshFilters(s.directory)
	}
	return nil
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
	val := s.validator
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
	if res, err := watermark.ExtractFallback(im, s.wmCfg); err == nil {
		return ids.FromBytes(res.Payload), true
	}
	return ids.PhotoID{}, false
}
