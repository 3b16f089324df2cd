package expt

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	mrand "math/rand"

	"irs/internal/bloom"
	"irs/internal/ledger"
)

// E5DeltaUpdates regenerates §4.4's update-traffic claim: filters are
// "updated regularly (perhaps hourly), and transferred with a delta
// encoding such that the update traffic will be low."
//
// A ledger starts with a base population of revoked claims and then
// lives through 24 hourly cycles of churn (new auto-revoked claims each
// hour). Each hour it rebuilds its snapshot; a proxy holding the
// previous epoch syncs to the new one (Ledger.FilterSync). The table
// compares per-hour sync bytes against the full snapshot transfer, and
// verifies the updated filter is bit-identical to the fresh download.
func E5DeltaUpdates(scale Scale, seed int64) (*Report, error) {
	r := &Report{
		ID:         "e5",
		Title:      "hourly filter update traffic: delta vs full transfer",
		PaperClaim: "hourly delta-encoded filter updates keep update traffic low (§4.4)",
		Columns:    []string{"churn/hour", "full snapshot", "delta p50/hour", "delta max/hour", "24h delta total", "saving"},
	}
	base := scale.pick(5_000, 50_000)
	churns := []int{base / 100, base / 20} // 1% and 5% hourly churn
	const hours = 24

	for _, churn := range churns {
		// Seeded identifier stream: delta sizes depend on which filter
		// bits each claim sets, so reproducible tables need
		// reproducible PhotoIDs (see internal/parallel's determinism
		// contract).
		l, err := ledger.New(ledger.Config{
			ID: 1, FilterFPR: 0.02, FilterHistory: 30,
			Rand: mrand.New(mrand.NewSource(seed ^ int64(churn))),
		})
		if err != nil {
			return nil, err
		}
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			l.Close()
			return nil, err
		}
		next := uint64(seed)
		claim := func(n int) error {
			// Signatures fan out across the pool; claims apply serially
			// in index order (signClaims in e2.go).
			inputs := signClaims(next, n, priv)
			next += uint64(n)
			for _, in := range inputs {
				if _, err := l.Claim(in.h, pub, in.sig, true); err != nil {
					return err
				}
			}
			return nil
		}
		if err := claim(base); err != nil {
			l.Close()
			return nil, err
		}
		// The ledger provisions 50% headroom at snapshot build, so
		// moderate churn stays delta-compatible; heavy churn forces the
		// occasional resize + full resync, which the table reports.
		if _, err := l.BuildSnapshot(); err != nil {
			l.Close()
			return nil, err
		}
		heldEpoch, held, err := l.FilterSnapshot()
		if err != nil {
			l.Close()
			return nil, err
		}
		fullBytes := len(held.Marshal())

		var deltaSizes []int
		total := 0
		resyncs := 0
		for h := 0; h < hours; h++ {
			if err := claim(churn); err != nil {
				l.Close()
				return nil, err
			}
			if _, err := l.BuildSnapshot(); err != nil {
				l.Close()
				return nil, err
			}
			baseHash := held.Hash()
			payload, latest, err := l.FilterSync(heldEpoch, baseHash[:])
			if err != nil {
				l.Close()
				return nil, err
			}
			updated, err := bloom.ApplyUpdate(held, payload)
			if err != nil {
				l.Close()
				return nil, err
			}
			if updated.M() != held.M() || updated.K() != held.K() {
				// Population outgrew the filter parameters: the sync
				// carried a full snapshot.
				resyncs++
			}
			total += len(payload)
			deltaSizes = append(deltaSizes, len(payload))
			held, heldEpoch = updated, latest
		}
		// Verify exactness against a fresh download.
		_, fresh, err := l.FilterSnapshot()
		if err != nil {
			l.Close()
			return nil, err
		}
		identical := string(fresh.Marshal()) == string(held.Marshal())
		p50 := quantileInts(deltaSizes, 0.5)
		maxD := quantileInts(deltaSizes, 1.0)
		saving := float64(hours*fullBytes) / float64(total)
		r.AddRow(
			fmt.Sprintf("%d (%.0f%%)", churn, float64(churn)/float64(base)*100),
			fmtBytes(fullBytes),
			fmtBytes(p50),
			fmtBytes(maxD),
			fmtBytes(total),
			fmt.Sprintf("%.1fx", saving),
		)
		if !identical {
			r.AddNote("WARNING: delta-updated filter diverged from fresh snapshot at churn %d", churn)
		}
		if resyncs > 0 {
			r.AddNote("churn %d: %d full resyncs after filter resize", churn, resyncs)
		}
		l.Close()
	}
	r.AddNote("base population %d revoked claims; 24 hourly snapshot cycles per row", base)
	return r, nil
}

func quantileInts(v []int, q float64) int {
	if len(v) == 0 {
		return 0
	}
	cp := append([]int(nil), v...)
	for i := 1; i < len(cp); i++ {
		x := cp[i]
		j := i - 1
		for j >= 0 && cp[j] > x {
			cp[j+1] = cp[j]
			j--
		}
		cp[j+1] = x
	}
	idx := int(q * float64(len(cp)-1))
	return cp[idx]
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
