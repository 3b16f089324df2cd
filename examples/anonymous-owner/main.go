// Anonymous ownership end to end: the paper's two privacy mechanisms
// working together.
//
//   - Claiming anonymously (§3.2): the owner pays the ledger with a
//     token bought in a mixing market, so even a leaked ledger database
//     cannot tie the claim to the payer.
//
//   - Viewing anonymously (§4.2): validations travel the oblivious
//     two-hop relay, so no single party links (viewer, photo).
//
//     go run ./examples/anonymous-owner
package main

import (
	"fmt"
	"log"

	"irs/internal/core"
	"irs/internal/ledger"
	"irs/internal/proxy"
	"irs/internal/relay"
	"irs/internal/tokens"
)

func main() {
	// --- The ledger, its proxy, and its payment service ---
	sys, err := core.Build(core.Spec{
		Ledgers: []ledger.Config{{ID: 1}},
		Proxy:   &proxy.Config{UseFilter: true, CacheCapacity: 64},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	issuer, err := tokens.NewIssuer()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("1. Four users buy claim tokens (the payment rail sees their names):")
	market := tokens.NewMarket()
	users := []string{"alice", "bob", "carol", "dave"}
	for _, u := range users {
		tok, err := issuer.Sell(u)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   sold token %x… to %s\n", tok.Serial[:4], u)
		market.Deposit(u, tok)
	}

	fmt.Println("\n2. The mixing market shuffles the tokens:")
	mixed, err := market.Mix()
	if err != nil {
		log.Fatal(err)
	}
	for _, u := range users {
		fmt.Printf("   %s now holds token %x…\n", u, mixed[u].Serial[:4])
	}

	fmt.Println("\n3. Alice pays for her claim with her mixed token:")
	if err := issuer.Redeem(mixed["alice"]); err != nil {
		log.Fatal(err)
	}
	cam, err := sys.NewOwner(1)
	if err != nil {
		log.Fatal(err)
	}
	_, owned, err := cam.ClaimAndLabel(cam.Shoot(42, 256, 160))
	if err != nil {
		log.Fatal(err)
	}
	buyer, _ := issuer.SoldTo(mixed["alice"].Serial)
	fmt.Printf("   claimed %s\n", owned.ID)
	fmt.Printf("   if the ledger's database leaks, the redeemed token points at: %q\n", buyer)
	fmt.Println("   (the actual claimer is alice — the mixing set is her anonymity)")

	if err := cam.Revoke(owned.ID); err != nil {
		log.Fatal(err)
	}
	if err := sys.RefreshFilters(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n4. A viewer validates Alice's (revoked) photo through the oblivious relay:")
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
