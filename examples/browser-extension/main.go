// Browser-extension walkthrough over real HTTP: the bootstrap
// deployment of paper §4 — a ledger server, a validation proxy, and an
// extension-shaped client, all on loopback.
//
// The example claims a gallery of photos, revokes a few, then "scrolls"
// through the gallery the way the paper's prototype did (§4.3: "we did
// not notice additional delay when scrolling"), printing where each
// validation was answered (filter / cache / ledger) and what it cost.
//
//	go run ./examples/browser-extension
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"time"

	"irs/internal/core"
	"irs/internal/ledger"
	"irs/internal/proxy"
)

func main() {
	// --- Ledger and proxy services, each on its own loopback listener ---
	sys, err := core.Build(core.Spec{
		Ledgers: []ledger.Config{{ID: 1}},
		HTTP:    true,
		Proxy:   &proxy.Config{UseFilter: true, CacheCapacity: 1024},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	proxyURL := sys.ProxyURL()
	fmt.Printf("ledger serving at   %s\n", sys.URL(1))
	fmt.Printf("proxy serving at    %s\n\n", proxyURL)

	// --- Owner claims a gallery over HTTP ---
	cam, err := sys.NewOwner(1)
	if err != nil {
		log.Fatal(err)
	}
	const nPhotos = 24
	type entry struct {
		id      string
		revoked bool
	}
	gallery := make([]entry, nPhotos)
	for i := range gallery {
		_, owned, err := cam.ClaimAndLabel(cam.Shoot(int64(i), 192, 128))
		if err != nil {
			log.Fatal(err)
		}
		gallery[i] = entry{id: owned.ID.String()}
		if i%6 == 0 { // revoke every sixth photo
			if err := cam.Revoke(owned.ID); err != nil {
				log.Fatal(err)
			}
			gallery[i].revoked = true
		}
	}
	if err := sys.RefreshFilters(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("claimed %d photos (every 6th revoked); proxy holds the revocation filter\n\n", nPhotos)

	// --- Scroll session ---
	fmt.Println("scrolling the gallery (extension validates each image):")
	httpc := &http.Client{Timeout: 5 * time.Second}
	var checked, blocked, wrong int
	var total time.Duration
	for _, e := range gallery {
		start := time.Now()
		r, err := httpc.Get(proxyURL + "/v1/validate?id=" + url.QueryEscape(e.id))
		if err != nil {
			log.Fatal(err)
		}
		var v proxy.ValidateResponse
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			log.Fatal(err)
		}
		r.Body.Close()
		el := time.Since(start)
		total += el
		checked++
		marker := "shown  "
		if !v.Displayable {
			marker = "BLOCKED"
			blocked++
		}
		fmt.Printf("  %s  %-7s via %-6s in %8s", e.id[:12]+"…", marker, v.Source, el.Round(10*time.Microsecond))
		if e.revoked != !v.Displayable {
			fmt.Printf("  << WRONG DECISION")
			wrong++
		}
		fmt.Println()
	}
	fmt.Printf("\n%d images checked, %d blocked, mean check %s\n",
		checked, blocked, (total / time.Duration(checked)).Round(10*time.Microsecond))

	st := sys.Proxy().Validator().Stats()
	fmt.Printf("proxy answered: %d from filter (no ledger contact), %d from cache, %d from ledger\n",
		st.FilterMisses, st.CacheHits, st.LedgerQueries)

	// --- Batched scroll ---
	// A real extension sees the whole viewport at once, so it validates
	// the page in one POST instead of one GET per image.
	fmt.Println("\nscrolling again, batched (one RPC for the whole page):")
	req := proxy.ValidateBatchRequest{}
	for _, e := range gallery {
		req.IDs = append(req.IDs, e.id)
	}
	body, err := json.Marshal(&req)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	r, err := httpc.Post(proxyURL+"/v1/validate/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var batch proxy.ValidateBatchResponse
	if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
		log.Fatal(err)
	}
	r.Body.Close()
	batchEl := time.Since(start)
	blocked = 0
	for i, v := range batch.Results {
		if !v.Displayable {
			blocked++
		}
		if gallery[i].revoked != !v.Displayable {
			fmt.Printf("  %s  << WRONG DECISION\n", gallery[i].id[:12]+"…")
			wrong++
		}
	}
	fmt.Printf("  %d images in one POST: %d blocked, %s total (vs %s for %d per-image GETs)\n",
		len(batch.Results), blocked, batchEl.Round(10*time.Microsecond), total.Round(10*time.Microsecond), checked)

	fmt.Println("\nthe ledger never learns which user viewed what — it sees only the proxy (§4.2)")
	if wrong > 0 {
		sys.Close()
		log.Fatalf("%d wrong decisions", wrong)
	}
}
