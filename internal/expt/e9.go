package expt

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/url"
	"time"

	"irs/internal/core"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/netsim"
	"irs/internal/proxy"
	"irs/internal/wire"
)

// E9EndToEnd reproduces the paper's prototype measurement (§4.3): "we
// built a prototype ledger and browser extension that performed
// revocation checks ... we did not notice additional delay when
// scrolling through a variety of web sites containing claimed images."
//
// A real ledger HTTP server and a real proxy HTTP server run on
// loopback; a browser-extension-shaped client claims photos, revokes
// some, and then "scrolls" through hundreds of claimed images, issuing
// one validation per image over HTTP. The table reports wall-clock
// latency for each operation class and the per-image check cost with
// the extension on — the quantity that must sit far below perceptual
// thresholds for the paper's observation to hold.
func E9EndToEnd(scale Scale, seed int64) (*Report, error) {
	r := &Report{
		ID:         "e9",
		Title:      "full-stack prototype over HTTP: operation latency and scroll overhead",
		PaperClaim: "prototype ledger + extension showed no noticeable scroll delay (§4.3)",
		Columns:    []string{"operation", "count", "p50", "p95", "notes"},
	}
	nPhotos := scale.pick(40, 300)
	nScroll := scale.pick(200, 2000)

	// Ledger and proxy, each over real HTTP.
	sys, err := core.Build(core.Spec{
		Ledgers: []ledger.Config{{ID: 1, FilterFPR: 0.02}},
		HTTP:    true,
		Proxy:   &proxy.Config{UseFilter: true, CacheCapacity: nPhotos},
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	client := wire.NewClient(sys.URL(1), "")
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}

	// Claims.
	var claimLat []time.Duration
	receipts := make([]ledger.Receipt, nPhotos)
	for i := 0; i < nPhotos; i++ {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(seed)+uint64(i))
		h := sha256.Sum256(buf[:])
		start := time.Now()
		rec, err := client.Claim(&wire.ClaimRequest{
			ContentHash: h[:],
			PubKey:      pub,
			HashSig:     ed25519.Sign(priv, ledger.ClaimMsg(h)),
		})
		if err != nil {
			return nil, err
		}
		claimLat = append(claimLat, time.Since(start))
		receipts[i] = rec
	}

	// Revoke 10%.
	nRevoked := nPhotos / 10
	var revokeLat []time.Duration
	for i := 0; i < nRevoked; i++ {
		id := receipts[i].ID
		seq, err := client.Seq(id)
		if err != nil {
			return nil, err
		}
		sig := ed25519.Sign(priv, ledger.OpMsg(id, ledger.OpRevoke, seq+1))
		start := time.Now()
		if err := client.Apply(id, ledger.OpRevoke, seq+1, sig); err != nil {
			return nil, err
		}
		revokeLat = append(revokeLat, time.Since(start))
	}
	if err := sys.RefreshFilters(); err != nil {
		return nil, err
	}

	// Scroll session: validate random claimed photos through the proxy.
	rng := mrand.New(mrand.NewSource(seed))
	var checkLat []time.Duration
	blocked := 0
	httpc := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < nScroll; i++ {
		id := receipts[rng.Intn(nPhotos)].ID
		start := time.Now()
		disp, err := validateHTTP(httpc, sys.ProxyURL(), id)
		if err != nil {
			return nil, err
		}
		checkLat = append(checkLat, time.Since(start))
		if !disp {
			blocked++
		}
	}

	q := func(v []time.Duration, p float64) string {
		return netsim.Quantile(v, p).Round(10 * time.Microsecond).String()
	}
	r.AddRow("claim (HTTP)", fmt.Sprintf("%d", len(claimLat)), q(claimLat, 0.5), q(claimLat, 0.95), "keygen excluded")
	r.AddRow("revoke (HTTP)", fmt.Sprintf("%d", len(revokeLat)), q(revokeLat, 0.5), q(revokeLat, 0.95), "signed op")
	r.AddRow("validate via proxy", fmt.Sprintf("%d", len(checkLat)), q(checkLat, 0.5), q(checkLat, 0.95),
		fmt.Sprintf("%d blocked (revoked)", blocked))
	st := sys.Proxy().Validator().Stats()
	r.AddNote("proxy outcomes: %d filter-miss (local), %d cache hits, %d ledger queries over %d checks",
		st.FilterMisses, st.CacheHits, st.LedgerQueries, st.Total)
	r.AddNote("loopback check latency is far below perceptual thresholds; WAN latency is modeled separately in E3/E4")
	return r, nil
}

func validateHTTP(c *http.Client, base string, id ids.PhotoID) (displayable bool, err error) {
	resp, err := c.Get(base + "/v1/validate?id=" + url.QueryEscape(id.String()))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return false, fmt.Errorf("validate: status %d: %s", resp.StatusCode, b)
	}
	var v proxy.ValidateResponse
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return false, err
	}
	return v.Displayable, nil
}
