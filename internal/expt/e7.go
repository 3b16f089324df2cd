package expt

import (
	"fmt"
	"time"

	"irs/internal/appeals"
	"irs/internal/core"
	"irs/internal/ledger"
	"irs/internal/photo"
	"irs/internal/watermark"
)

// E7Appeals regenerates the §5 attack analysis: "a more sophisticated
// attacker could claim the picture ..., mark it as not revoked, insert
// new metadata and a matching watermark (erasing the old one), and then
// start sharing it. IRS cannot prevent or detect this automatically ...
// but must rely on the aforementioned appeals process."
//
// The experiment mounts the full attack pipeline for several attacker
// post-processing strategies, runs the appeals adjudication, and
// reports: the attack success rate *before* appeal (it should be ~100%
// — the attack works, as the paper concedes), the appeal uphold rate
// (derived copies correctly killed), and the false-uphold rate against
// unrelated photos (framing must fail).
func E7Appeals(scale Scale, seed int64) (*Report, error) {
	r := &Report{
		ID:         "e7",
		Title:      "re-claim attack and appeals adjudication accuracy",
		PaperClaim: "the re-claim attack defeats automation; the appeals process catches it (§5, §3.2)",
		Columns:    []string{"attacker strategy", "attack works pre-appeal", "appeal upholds", "framing upheld (want 0)"},
	}
	nCases := scale.pick(4, 25)

	now := time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	sys, err := core.Build(core.Spec{Ledgers: []ledger.Config{{ID: 1}, {ID: 2}}, Clock: clock})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	victim, err := sys.NewOwner(1)
	if err != nil {
		return nil, err
	}
	attacker, err := sys.NewOwner(2)
	if err != nil {
		return nil, err
	}
	al, err := sys.Ledger(2)
	if err != nil {
		return nil, err
	}
	adj, err := sys.NewAdjudicator(2, nil)
	if err != nil {
		return nil, err
	}

	strategies := []struct {
		name      string
		transform func(*photo.Image) *photo.Image
	}{
		{"erase+reclaim", nil},
		{"erase+jpeg75", func(im *photo.Image) *photo.Image { return photo.CompressJPEGLike(im, 75) }},
		{"erase+tint+jpeg80", func(im *photo.Image) *photo.Image {
			return photo.CompressJPEGLike(photo.Tint(im, 1.08, 10), 80)
		}},
	}
	caseSeed := seed
	for _, st := range strategies {
		var attackWorks, upheld, framingUpheld int
		for i := 0; i < nCases; i++ {
			caseSeed++
			orig := victim.Shoot(caseSeed, 192, 128)
			labeled, owned, err := victim.ClaimAndLabel(orig)
			if err != nil {
				return nil, err
			}
			if err := victim.Revoke(owned.ID); err != nil {
				return nil, err
			}
			now = now.Add(time.Hour)
			stolen, err := watermark.Erase(labeled, watermark.DefaultConfig(), caseSeed)
			if err != nil {
				return nil, err
			}
			stolen.Meta.StripAll()
			if st.transform != nil {
				stolen = st.transform(stolen)
			}
			attackLabeled, attackOwned, err := attacker.ClaimAndLabel(stolen)
			if err != nil {
				return nil, err
			}
			// Pre-appeal: does the attacker's copy validate as active?
			if p, err := al.Status(attackOwned.ID); err == nil && p.State == ledger.StateActive {
				attackWorks++
			}
			// Rightful appeal.
			v, err := adj.Decide(&appeals.Complaint{
				Original:       orig,
				OriginalToken:  owned.Receipt.Timestamp,
				OriginalLedger: 1,
				Copy:           attackLabeled,
				ContestedID:    attackOwned.ID,
			})
			if err != nil {
				return nil, err
			}
			if v.Outcome == appeals.Upheld {
				upheld++
			}
			// Framing attempt: an unrelated claimant (valid earlier
			// evidence for a *different* photo) appeals the same claim.
			unrelated := victim.Shoot(caseSeed+100_000, 192, 128)
			_, unrelOwned, err := victim.ClaimAndLabel(unrelated)
			if err != nil {
				return nil, err
			}
			// Give the framing claimant an earlier timestamp than the
			// attack by rolling the clock back is impossible; instead
			// the framing test accepts NotEarlier or NotDerived — any
			// Upheld is a failure.
			fv, err := adj.Decide(&appeals.Complaint{
				Original:       unrelated,
				OriginalToken:  unrelOwned.Receipt.Timestamp,
				OriginalLedger: 1,
				Copy:           attackLabeled,
				ContestedID:    attackOwned.ID,
			})
			if err != nil {
				return nil, err
			}
			if fv.Outcome == appeals.Upheld {
				framingUpheld++
			}
			now = now.Add(time.Hour)
		}
		pct := func(n int) string { return fmt.Sprintf("%d/%d", n, nCases) }
		r.AddRow(st.name, pct(attackWorks), pct(upheld), pct(framingUpheld))
	}
	r.AddNote("%d attack cases per strategy; victim claims and revokes, attacker erases the watermark and re-claims an hour later", nCases)
	r.AddNote("'attack works pre-appeal' should be ~100%%: the paper concedes automation cannot stop it")
	return r, nil
}
