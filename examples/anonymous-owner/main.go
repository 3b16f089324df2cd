// Anonymous viewing end to end (§4.2): an owner claims and revokes a
// photo, then a viewer validates it through the oblivious two-hop
// relay, so no single party links (viewer, photo).
//
//	go run ./examples/anonymous-owner
package main

import (
	"fmt"
	"log"

	"irs/internal/core"
	"irs/internal/ledger"
	"irs/internal/proxy"
	"irs/internal/relay"
)

func main() {
	// --- The ledger and its proxy ---
	sys, err := core.Build(core.Spec{
		Ledgers: []ledger.Config{{ID: 1}},
		Proxy:   &proxy.Config{UseFilter: true, CacheCapacity: 64},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	fmt.Println("1. Alice claims a photo and then revokes it:")
	cam, err := sys.NewOwner(1)
	if err != nil {
		log.Fatal(err)
	}
	_, owned, err := cam.ClaimAndLabel(cam.Shoot(42, 256, 160))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   claimed %s\n", owned.ID)

	if err := cam.Revoke(owned.ID); err != nil {
		log.Fatal(err)
	}
	if err := sys.RefreshFilters(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n2. A viewer validates Alice's (revoked) photo through the oblivious relay:")
	egress, err := relay.NewEgress(sys.Proxy().Validator().Resolve)
	if err != nil {
		log.Fatal(err)
	}
	client, err := relay.NewClient(egress.PublicKey())
	if err != nil {
		log.Fatal(err)
	}
	query, pending, err := client.Seal(owned.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   sealed query: %d bytes of ciphertext — the ingress sees only this\n", len(query.Box))
	sealedResp, err := egress.Handle(query)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := pending.Open(sealedResp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   egress resolved it blindly: state = %s\n", resp.State)
	fmt.Println("\n   ingress knows WHO asked but not WHAT;")
	fmt.Println("   egress knows WHAT was asked but not WHO. (§4.2)")
}
