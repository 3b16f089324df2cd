// Leaked-photo scenario: the paper's motivating use case (§1, §2).
//
// A photo that was always meant to stay private leaks — "their phone was
// hacked, and all the photos put online". Because the camera claimed the
// photo at creation time with the auto-revoke default (§4.4: "many
// photos will be automatically registered and revoked"), every
// IRS-respecting surface refuses it from the moment it appears:
// aggregators deny the upload, browser extensions refuse to display
// copies that slip through, and a site that strips metadata still can't
// launder it past the watermark.
//
//	go run ./examples/leaked-photo
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

	victim, err := sys.NewOwner(1)
	if err != nil {
		log.Fatal(err)
	}
	// The camera's default: every photo is claimed and *revoked at
	// birth*; the owner opts photos in explicitly.
	victim.AutoRevoke = true

	site, err := sys.NewAggregator(aggregator.Config{Name: "photosite"}, 2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("1. The victim's phone takes a private photo.")
	private := victim.Shoot(7, 256, 160)
	labeled, owned, err := victim.ClaimAndLabel(private)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   claimed %s — revoked at birth, never opted in\n\n", owned.ID)
	if err := sys.RefreshFilters(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("2. The phone is hacked; the labeled photo leaks.")
	fmt.Println("   The thief uploads it to an IRS-supporting aggregator:")
	res, err := site.Upload(labeled)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   upload → accepted=%v (%s)\n\n", res.Accepted, res.Reason)

	fmt.Println("3. The thief mails the photo around; recipients' browsers check:")
	dec := sys.View(labeled)
	fmt.Printf("   extension → display=%v (%s)\n\n", dec.Display, dec.Reason)

	fmt.Println("4. The thief strips the metadata and re-encodes, hoping to launder it:")
	laundered, err := photo.StripViaPNM(photo.CompressJPEGLike(labeled, 75))
	if err != nil {
		log.Fatal(err)
	}
	res, err = site.Upload(laundered)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   upload of stripped copy → accepted=%v (%s)\n", res.Accepted, res.Reason)
	dec = sys.View(laundered)
	fmt.Printf("   extension on stripped copy → display=%v (%s)\n\n", dec.Display, dec.Reason)

	fmt.Println("5. Later, the victim decides one vacation photo may be shared:")
	vacation := victim.Shoot(8, 256, 160)
	vacLabeled, vacOwned, err := victim.ClaimAndLabel(vacation)
	if err != nil {
		log.Fatal(err)
	}
	if err := victim.Unrevoke(vacOwned.ID); err != nil {
		log.Fatal(err)
	}
	if err := sys.RefreshFilters(); err != nil {
		log.Fatal(err)
	}
	res, err = site.Upload(vacLabeled)
	if err != nil {
		log.Fatal(err)
	}
	dec = sys.View(vacLabeled)
	fmt.Printf("   opted-in photo: upload accepted=%v, display=%v\n", res.Accepted, dec.Display)

	fmt.Println("\nThe leak caused zero viewable copies on well-behaved surfaces —")
	fmt.Println("without the victim chasing a single copy (Goal #1).")
}
