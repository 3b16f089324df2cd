// Derivative content done right: the §3.2 intent that "those making
// derivative images ... transfer the metadata to the modified version
// so that it is also revoked if the original is revoked."
//
// A meme-maker crops and tints Alice's labeled photo but keeps the
// label. The derivative uploads fine (same claim), and when Alice
// revokes the original, the meme dies with it — no separate takedown
// needed. A second meme-maker who strips the label instead finds their
// version rejected outright.
//
//	go run ./examples/derivative-meme
package main

import (
	"fmt"
	"log"

	"irs/internal/aggregator"
	"irs/internal/core"
	"irs/internal/ledger"
	"irs/internal/photo"
)

func main() {
	sys, err := core.Build(core.Spec{Ledgers: []ledger.Config{{ID: 1}, {ID: 2}}})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	alice, err := sys.NewOwner(1)
	if err != nil {
		log.Fatal(err)
	}
	site, err := sys.NewAggregator(aggregator.Config{Name: "memesite"}, 2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("1. Alice claims and shares a photo.")
	labeled, owned, err := alice.ClaimAndLabel(alice.Shoot(7, 256, 160))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   claim %s\n\n", owned.ID)

	fmt.Println("2. A meme-maker crops and tints it, KEEPING the label:")
	cropped, err := photo.CropFraction(labeled, 0.9)
	if err != nil {
		log.Fatal(err)
	}
	meme := photo.Tint(cropped, 1.1, 8) // metadata rides along
	res, err := site.Upload(meme)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   upload → accepted=%v under claim %s (the ORIGINAL's claim)\n\n", res.Accepted, res.ID)

	fmt.Println("3. A second meme-maker strips the label first:")
	strippedMeme, err := photo.StripViaPNM(meme)
	if err != nil {
		log.Fatal(err)
	}
	// Even the watermark is weakened by their aggressive re-crop; either
	// way the partial/absent label is disqualifying.
	res2, err := site.Upload(strippedMeme)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   upload → accepted=%v (%s)\n\n", res2.Accepted, res2.Reason)

	fmt.Println("4. Alice revokes the original. One recheck later:")
	if err := alice.Revoke(owned.ID); err != nil {
		log.Fatal(err)
	}
	down, err := site.RecheckAll()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %d hosted item(s) taken down — the meme died with the original,\n", down)
	fmt.Println("   exactly because its maker transferred the metadata (§3.2).")
}
