// Quickstart: the four IRS operations — claim, label, revoke, validate
// (paper §3.1) — against an in-process System.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"irs/internal/core"
	"irs/internal/ledger"
	"irs/internal/photo"
)

func main() {
	// One system, two commercial ledgers.
	sys, err := core.Build(core.Spec{Ledgers: []ledger.Config{{ID: 1}, {ID: 2}}})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Alice's camera claims on ledger 1.
	alice, err := sys.NewOwner(1)
	if err != nil {
		log.Fatal(err)
	}

	// CLAIM + LABEL: shoot a photo, register it, and label the copy
	// that will be shared (metadata + robust watermark).
	original := alice.Shoot(2022, 256, 160)
	labeled, owned, err := alice.ClaimAndLabel(original)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("claimed photo %s\n", owned.ID)
	fmt.Printf("  authenticated timestamp: %s\n", owned.Receipt.Timestamp.Time)
	fmt.Printf("  label metadata: %s\n", labeled.Meta.Get(photo.KeyIRSID))

	// The hourly filter cycle (§4.4): ledgers publish revocation
	// filters, the proxy aggregates them.
	if err := sys.RefreshFilters(); err != nil {
		log.Fatal(err)
	}

	// VALIDATE: a viewer's browser extension checks before displaying.
	dec := sys.View(labeled)
	fmt.Printf("view before revocation: display=%v (%s, answered by %s)\n",
		dec.Display, dec.Reason, dec.Source)

	// REVOKE: Alice changes her mind — even though copies are out there.
	if err := alice.Revoke(owned.ID); err != nil {
		log.Fatal(err)
	}
	if err := sys.RefreshFilters(); err != nil {
		log.Fatal(err)
	}
	dec = sys.View(labeled)
	fmt.Printf("view after revocation:  display=%v (%s)\n", dec.Display, dec.Reason)

	// Even a copy whose metadata was stripped by a careless site stays
	// revocable: the watermark carries the identifier (Goal #5).
	stripped, err := photo.StripViaPNM(labeled)
	if err != nil {
		log.Fatal(err)
	}
	dec = sys.View(stripped)
	fmt.Printf("view of stripped copy:  display=%v (%s, id recovered from watermark)\n",
		dec.Display, dec.Reason)

	// UNREVOKE: revocation is reversible by the owner.
	if err := alice.Unrevoke(owned.ID); err != nil {
		log.Fatal(err)
	}
	sys.Proxy().Validator().Invalidate(owned.ID)
	dec = sys.View(labeled)
	fmt.Printf("view after unrevoke:    display=%v (%s)\n", dec.Display, dec.Reason)
}
