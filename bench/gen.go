package main

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/tsa"
)

// Seeded input generation and the ground truth that goes with it. The
// stack under test only ever sees what is generated here; every answer
// it gives is checked against what the generator knows.

// population is the claim set of a page-view or revocation workload.
// An id's index is its popularity rank (0 = most viewed).
type population struct {
	ids []ids.PhotoID
	// revoked is the ground truth by index. Only revoke_sync changes it
	// after set-up, from its single client goroutine.
	revoked []bool
	// positive lists the indices the epoch-1 filter answers "maybe
	// revoked" for: every revoked id plus the false positives.
	positive []uint32
	// owner signs revoke/unrevoke operations; every record carries its
	// public key.
	ownerPub  ed25519.PublicKey
	ownerPriv ed25519.PrivateKey
}

// popShape fixes the structure of a population so that it does not
// vary with the seed: how many claims, how many start revoked, and how
// many active ones the first filter must report as false positives.
// The seed decides the identifiers and the order of page draws, not
// the mix; that keeps the count metrics comparable across seeds.
type popShape struct {
	claims         int
	revoked        int
	falsePositives int
}

// restoreChunks is how many equal RestoreRecords batches the active
// claims arrive in.
const restoreChunks = 8

// recordGen makes fully formed claim records from a seeded stream, the
// way a replication feed would deliver them.
type recordGen struct {
	rng  *rand.Rand
	pub  ed25519.PublicKey
	t0   time.Time
	next uint64
}

func (g *recordGen) record(state ledger.State) ledger.Record {
	g.next++
	rec := ledger.Record{
		PubKey:  g.pub,
		HashSig: make([]byte, ed25519.SignatureSize),
		State:   state,
		Timestamp: &tsa.Token{
			Serial: g.next,
			Time:   g.t0.Add(time.Duration(g.next) * time.Second),
			Sig:    make([]byte, ed25519.SignatureSize),
		},
	}
	rec.ID.Ledger = originID
	g.rng.Read(rec.ID.Rec[:])
	g.rng.Read(rec.HashSig)
	g.rng.Read(rec.ContentHash[:])
	rec.Timestamp.Digest = rec.ContentHash
	g.rng.Read(rec.Timestamp.Sig)
	return rec
}

// populate fills the origin ledger with a population of the given
// shape, flushes it to segments and publishes filter epoch 1 through
// the tiers.
//
// The revoked claims go in first and the first filter is built from
// them alone, so that each further candidate can be classified against
// that filter: candidates are drawn until exactly shape.falsePositives
// filter-positive and the right number of filter-negative active
// claims are in hand, and the surplus of either class is discarded
// before it reaches the ledger. Filter-positive ids are then spread
// evenly over the popularity ranks.
func populate(st *stack, shape popShape, seed int64) (*population, error) {
	rng := rand.New(rand.NewSource(seed))
	var keySeed [ed25519.SeedSize]byte
	rng.Read(keySeed[:])
	priv := ed25519.NewKeyFromSeed(keySeed[:])
	pop := &population{
		ids:       make([]ids.PhotoID, shape.claims),
		revoked:   make([]bool, shape.claims),
		ownerPriv: priv,
		ownerPub:  priv.Public().(ed25519.PublicKey),
	}
	gen := &recordGen{rng: rng, pub: pop.ownerPub, t0: time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)}

	revoked := make([]ledger.Record, shape.revoked)
	for i := range revoked {
		revoked[i] = gen.record(ledger.StateRevoked)
	}
	if err := st.origin.RestoreRecords(revoked); err != nil {
		return nil, fmt.Errorf("restoring revoked claims: %w", err)
	}
	if _, err := st.origin.BuildSnapshot(); err != nil {
		return nil, err
	}
	_, first, err := st.origin.FilterSnapshot()
	if err != nil {
		return nil, err
	}

	wantClean := shape.claims - shape.revoked - shape.falsePositives
	var falsePos, clean []ids.PhotoID
	chunkSize := (shape.claims - shape.revoked + restoreChunks - 1) / restoreChunks
	chunk := make([]ledger.Record, 0, chunkSize)
	flushChunk := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if err := st.origin.RestoreRecords(chunk); err != nil {
			return fmt.Errorf("restoring active claims: %w", err)
		}
		chunk = chunk[:0]
		return nil
	}
	for tries := 0; len(falsePos) < shape.falsePositives || len(clean) < wantClean; tries++ {
		if tries > 64*shape.claims {
			return nil, fmt.Errorf("population: filter yields too few false positives for a quota of %d", shape.falsePositives)
		}
		rec := gen.record(ledger.StateActive)
		if first.Test(ledger.FilterKey(rec.ID)) {
			if len(falsePos) == shape.falsePositives {
				continue
			}
			falsePos = append(falsePos, rec.ID)
		} else {
			if len(clean) == wantClean {
				continue
			}
			clean = append(clean, rec.ID)
		}
		if chunk = append(chunk, rec); len(chunk) == chunkSize {
			if err := flushChunk(); err != nil {
				return nil, err
			}
		}
	}
	if err := flushChunk(); err != nil {
		return nil, err
	}
	if err := st.origin.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}

	// Rank assignment: the filter-positive ids, in seeded order, take
	// evenly spaced ranks; the rest fill the gaps in generation order.
	type posID struct {
		id      ids.PhotoID
		revoked bool
	}
	pos := make([]posID, 0, shape.revoked+shape.falsePositives)
	for i := range revoked {
		pos = append(pos, posID{revoked[i].ID, true})
	}
	for _, id := range falsePos {
		pos = append(pos, posID{id, false})
	}
	rng.Shuffle(len(pos), func(a, b int) { pos[a], pos[b] = pos[b], pos[a] })
	pop.positive = make([]uint32, 0, len(pos))
	nextClean := 0
	for rank, j := 0, 0; rank < shape.claims; rank++ {
		if j < len(pos) && rank == (2*j+1)*shape.claims/(2*len(pos)) {
			pop.ids[rank], pop.revoked[rank] = pos[j].id, pos[j].revoked
			pop.positive = append(pop.positive, uint32(rank))
			j++
			continue
		}
		pop.ids[rank] = clean[nextClean]
		nextClean++
	}

	if _, err := st.syncTiers(noOp); err != nil {
		return nil, err
	}
	return pop, nil
}

// pageSize is the paper's page view: ~48 photo checks.
const pageSize = 48

// page is one page view: population indices, so the checker can look
// the truth up without hashing.
type page [pageSize]uint32

// zipfS is the popularity skew of page views.
const zipfS = 1.1

// zipfPages draws n pages whose ids follow Zipf(zipfS) over the first
// `over` popularity ranks.
func zipfPages(n, over int, seed int64) []page {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, zipfS, 1, uint64(over-1))
	pages := make([]page, n)
	for i := range pages {
		for j := range pages[i] {
			pages[i][j] = uint32(z.Uint64())
		}
	}
	return pages
}

// uniformPages draws n pages uniformly from the given indices.
func uniformPages(n int, from []uint32, seed int64) []page {
	rng := rand.New(rand.NewSource(seed))
	pages := make([]page, n)
	for i := range pages {
		for j := range pages[i] {
			pages[i][j] = from[rng.Intn(len(from))]
		}
	}
	return pages
}

// clientSeed derives the input stream of one client from the run seed.
func clientSeed(seed int64, client int) int64 { return seed*1_000_003 + int64(client) + 1 }
