// Re-claim attack and appeal: paper §5, "Direct Attacks".
//
// "To distribute a photo that is currently revoked, a more sophisticated
// attacker could claim the picture ..., insert new metadata and a
// matching watermark (erasing the old one), and then start sharing it.
// IRS cannot prevent or detect this automatically ... but must rely on
// the aforementioned appeals process."
//
// The example mounts the full attack, shows that it works, then runs the
// appeal and shows the contested claim being permanently revoked.
//
//	go run ./examples/reclaim-attack
package main

import (
	"fmt"
	"log"
	"time"

	"irs/internal/appeals"
	"irs/internal/core"
	"irs/internal/ledger"
	"irs/internal/watermark"
)

func main() {
	now := time.Date(2022, 11, 14, 9, 0, 0, 0, time.UTC)
	sys, err := core.Build(core.Spec{Ledgers: []ledger.Config{{ID: 1}, {ID: 2}}, Clock: func() time.Time { return now }})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	victim, err := sys.NewOwner(1)
	if err != nil {
		log.Fatal(err)
	}
	attacker, err := sys.NewOwner(2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("1. Victim claims a photo, shares it, then revokes it.")
	original := victim.Shoot(99, 256, 160)
	labeled, owned, err := victim.ClaimAndLabel(original)
	if err != nil {
		log.Fatal(err)
	}
	if err := victim.Revoke(owned.ID); err != nil {
		log.Fatal(err)
	}
	if err := sys.RefreshFilters(); err != nil {
		log.Fatal(err)
	}
	dec := sys.View(labeled)
	fmt.Printf("   victim's copy now blocked everywhere: display=%v (%s)\n\n", dec.Display, dec.Reason)

	fmt.Println("2. Attacker erases the watermark, strips metadata, re-claims on ledger 2.")
	now = now.Add(time.Hour)
	stolen, err := watermark.Erase(labeled, watermark.DefaultConfig(), 1)
	if err != nil {
		log.Fatal(err)
	}
	stolen.Meta.StripAll()
	attackCopy, attackOwned, err := attacker.ClaimAndLabel(stolen)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.RefreshFilters(); err != nil {
		log.Fatal(err)
	}
	dec = sys.View(attackCopy)
	fmt.Printf("   the attack WORKS: the re-claimed copy displays=%v under claim %s\n", dec.Display, attackOwned.ID)
	fmt.Println("   (exactly as the paper concedes: automation cannot catch this)")

	fmt.Println("\n3. Victim notices the copy and appeals to ledger 2 with:")
	fmt.Println("   - the original photo")
	fmt.Printf("   - the signed claim timestamp (%s — an hour before the attacker's)\n", owned.Receipt.Timestamp.Time.Format(time.TimeOnly))
	fmt.Println("   - the circulating copy")
	adj, err := sys.NewAdjudicator(2, nil)
	if err != nil {
		log.Fatal(err)
	}
	verdict, err := adj.Decide(&appeals.Complaint{
		Original:       original,
		OriginalToken:  owned.Receipt.Timestamp,
		OriginalLedger: 1,
		Copy:           attackCopy,
		ContestedID:    attackOwned.ID,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n   verdict: %s (robust-hash similarity %.3f)\n", verdict.Outcome, verdict.Similarity)
	fmt.Printf("   detail:  %s\n\n", verdict.Detail)

	if err := sys.RefreshFilters(); err != nil {
		log.Fatal(err)
	}
	dec = sys.View(attackCopy)
	fmt.Printf("4. The attacker's copy is dead: display=%v (%s)\n", dec.Display, dec.Reason)
	fmt.Println("   Permanent revocation cannot be undone, even by the attacker's own key.")

	fmt.Println("\n5. A *naive* attacker who merely mangles the watermark achieves nothing:")
	mangled, err := watermark.Erase(labeled, watermark.DefaultConfig(), 2)
	if err != nil {
		log.Fatal(err)
	}
	// Metadata still names the victim's (revoked) claim.
	dec = sys.View(mangled)
	fmt.Printf("   mangled copy: display=%v (%s) — self-defeating, as §5 predicts\n", dec.Display, dec.Reason)
}
