package expt

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	mrand "math/rand"

	"irs/internal/bloom"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/parallel"
	"irs/internal/proxy"
)

// claimInput is one precomputed ledger claim: the content hash and its
// owner signature. Signing dominates experiment setup (one Ed25519
// signature per claim), and both fields are pure functions of the claim
// index, so experiments build the batch on the worker pool and then
// apply it serially in index order — the ledger's injected Rand stream
// hands out identifiers in that same order, keeping tables
// reproducible at any worker count.
type claimInput struct {
	h   [32]byte
	sig []byte
}

// signClaims precomputes claim inputs for indices [0, n) where the
// content hash of claim i is sha256(be64(base+i)).
func signClaims(base uint64, n int, priv ed25519.PrivateKey) []claimInput {
	out := make([]claimInput, n)
	parallel.ForChunks(n, 256, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], base+uint64(i))
			h := sha256.Sum256(buf[:])
			out[i] = claimInput{h: h, sig: ed25519.Sign(priv, ledger.ClaimMsg(h))}
		}
	})
	return out
}

// E2LedgerLoad regenerates §4.4's load-reduction claim: with a revocation
// filter in front of the ledger, only false hits (≈2%) and actually
// revoked views reach it — "lessening the load on ledgers by a factor
// of fifty".
//
// Workload per the paper's usage assumptions: a large fraction of
// *claimed* photos are revoked ("many photos will be automatically
// registered and revoked"), but a very high fraction of *viewed* photos
// are not. Views follow a Zipf popularity law, which is what makes the
// proxy's cache arm meaningful. Four arms isolate the contributions:
// direct (no proxy), cache-only, filter-only, and filter+cache.
func E2LedgerLoad(scale Scale, seed int64) (*Report, error) {
	r := &Report{
		ID:         "e2",
		Title:      "ledger load vs proxy cache and Bloom filter",
		PaperClaim: "Bloom filter of revoked photos cuts ledger load ~50x (§4.4)",
		Columns:    []string{"arm", "views", "ledger queries", "queries/view", "reduction"},
	}
	nClaims := scale.pick(2_000, 20_000)
	nViews := scale.pick(20_000, 200_000)
	const revokedClaimFrac = 0.5  // half of all claims are auto-revoked
	const revokedViewFrac = 0.005 // but almost no views target them

	// The injected Rand makes issued PhotoIDs (and with them the filter
	// bit patterns and false-hit counts) a pure function of the seed.
	l, err := ledger.New(ledger.Config{
		ID: 1, FilterFPR: 0.02,
		Rand: mrand.New(mrand.NewSource(seed ^ 0x1d5a11)),
	})
	if err != nil {
		return nil, err
	}
	defer l.Close()

	// One keypair across claims: E2 measures query load, not claim
	// throughput, and per-claim keygen would dominate setup time.
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	inputs := signClaims(uint64(seed), nClaims, priv)
	var active, revoked []ids.PhotoID
	for i, in := range inputs {
		rev := i < int(float64(nClaims)*revokedClaimFrac)
		rec, err := l.Claim(in.h, pub, in.sig, rev)
		if err != nil {
			return nil, err
		}
		if rev {
			revoked = append(revoked, rec.ID)
		} else {
			active = append(active, rec.ID)
		}
	}
	if _, err := l.BuildSnapshot(); err != nil {
		return nil, err
	}
	epoch, filter, err := l.FilterSnapshot()
	if err != nil {
		return nil, err
	}

	// Pre-draw the view sequence once so every arm sees the same views.
	// Mild popularity skew: what the proxy cache exploits is re-viewing
	// (views ≫ photos), not head concentration — and a heavy head would
	// make the filter arms' false-hit traffic hostage to whether one hot
	// photo happens to be a filter false positive (CSPRNG ids make that
	// nondeterministic across runs).
	rng := mrand.New(mrand.NewSource(seed))
	zipf := mrand.NewZipf(rng, 1.01, 8, uint64(len(active)-1))
	views := make([]ids.PhotoID, nViews)
	for i := range views {
		if rng.Float64() < revokedViewFrac {
			views[i] = revoked[rng.Intn(len(revoked))]
		} else {
			views[i] = active[zipf.Uint64()]
		}
	}

	// A paper-exact filter: sized at the paper's 8.59 bits/key (≈2% FPR)
	// over the revoked population, with no provisioning headroom — this
	// arm validates the "factor of fifty" arithmetic directly. The
	// ledger's production snapshot (used in the last arm) provisions 50%
	// headroom and therefore over-delivers.
	paperFilter, err := bloomPaperFilter(revoked)
	if err != nil {
		return nil, err
	}

	query := func(id ids.PhotoID) (*ledger.StatusProof, error) { return l.Status(id) }
	arms := []struct {
		name   string
		cfg    proxy.Config
		filter *filterChoice
	}{
		// Stripes is pinned to 1: this table models a single global LRU
		// cache (hit rates shift slightly under per-stripe eviction);
		// the striped cache is what bench/'s page-view workloads load.
		{"direct (no proxy)", proxy.Config{Stripes: 1}, nil},
		{"proxy cache", proxy.Config{CacheCapacity: nClaims / 10, Stripes: 1}, nil},
		{"proxy filter (paper 2%)", proxy.Config{UseFilter: true, Stripes: 1}, &filterChoice{1, paperFilter}},
		{"proxy filter (ledger snapshot)", proxy.Config{UseFilter: true, Stripes: 1}, &filterChoice{epoch, filter}},
		{"proxy filter+cache", proxy.Config{UseFilter: true, CacheCapacity: nClaims / 10, Stripes: 1}, &filterChoice{epoch, filter}},
	}
	var direct uint64
	for _, arm := range arms {
		v := proxy.NewValidator(arm.cfg, query)
		if arm.filter != nil {
			v.SetFilter(1, arm.filter.epoch, arm.filter.f.Clone())
		}
		// Phase load is the counter delta across the arm — the counters
		// themselves are monotone and shared with /debug/metrics.
		before := l.Metrics().Queries
		for _, id := range views {
			if _, err := v.Validate(id); err != nil {
				return nil, err
			}
		}
		q := l.Metrics().Queries - before
		if arm.name == "direct (no proxy)" {
			direct = q
		}
		reduction := "1.0x"
		if q > 0 && direct > 0 {
			reduction = fmt.Sprintf("%.1fx", float64(direct)/float64(q))
		}
		r.AddRow(arm.name,
			fmt.Sprintf("%d", nViews),
			fmt.Sprintf("%d", q),
			fmt.Sprintf("%.4f", float64(q)/float64(nViews)),
			reduction)
	}
	r.AddNote("claims: %d (%.0f%% revoked at birth); %.1f%% of views target revoked photos",
		nClaims, revokedClaimFrac*100, revokedViewFrac*100)
	r.AddNote("paper-2%% arm floor = revoked views + 2%% false hits ≈ %.1f%% of views → the paper's ~50x",
		(revokedViewFrac+0.02)*100)
	r.AddNote("the ledger's production snapshot provisions 50%% headroom, so its effective FPR (and load) is lower still")
	return r, nil
}

// filterChoice pairs a filter with its epoch for arm configuration.
type filterChoice struct {
	epoch uint64
	f     *bloom.Filter
}

// bloomPaperFilter builds a filter over the revoked set at exactly the
// paper's 1 GiB / 10⁹ keys ratio.
func bloomPaperFilter(revoked []ids.PhotoID) (*bloom.Filter, error) {
	const paperBitsPerKey = float64(8*(1<<30)) / 1e9
	m := uint64(float64(len(revoked)) * paperBitsPerKey)
	f, err := bloom.New(m, 6)
	if err != nil {
		return nil, err
	}
	for _, id := range revoked {
		f.Add(ledger.FilterKey(id))
	}
	return f, nil
}
