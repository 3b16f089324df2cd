package main

import (
	"crypto/ed25519"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/parallel"
	"irs/internal/wire"
)

// The loopback backend the -chaos and -adversary harnesses share: a
// populated ledger reached by direct in-process calls (wire.Loopback),
// which the harnesses wrap in their own fault and admission layers.

// serveConfig is the workload shape (the -serve-* flags) a backend is
// built for; setupServeLedger reads IDs, Revoked and Seed.
type serveConfig struct {
	Workers int
	IDs     int
	Batch   int
	Pages   int
	Revoked float64
	Zipf    float64
	Seed    int64
}

// serveLedger is one prepared backend: a populated ledger and its
// in-process transport.
type serveLedger struct {
	l      *ledger.Ledger
	ids    []ids.PhotoID
	direct *wire.Loopback
	close  func()
}

// setupServeLedger claims cfg.IDs photos (a deterministic fraction
// revoked at birth) on a ledger with the given shard count.
func setupServeLedger(cfg serveConfig, shards int) (*serveLedger, error) {
	l, err := ledger.New(ledger.Config{
		ID:     1,
		Shards: shards,
		Rand:   rand.New(rand.NewSource(cfg.Seed ^ 0x5e21)),
	})
	if err != nil {
		return nil, err
	}
	pub, priv, err := ed25519.GenerateKey(crand.Reader)
	if err != nil {
		l.Close()
		return nil, err
	}
	// Precompute hashes and owner signatures on the pool (the signing
	// dominates), then claim serially in index order.
	type claimInput struct {
		h   [32]byte
		sig []byte
	}
	inputs := make([]claimInput, cfg.IDs)
	parallel.ForChunks(cfg.IDs, 256, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], uint64(cfg.Seed)+uint64(i))
			h := sha256.Sum256(buf[:])
			inputs[i] = claimInput{h: h, sig: ed25519.Sign(priv, ledger.ClaimMsg(h))}
		}
	})
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7ea2))
	population := make([]ids.PhotoID, cfg.IDs)
	for i, in := range inputs {
		rec, err := l.Claim(in.h, pub, in.sig, rng.Float64() < cfg.Revoked)
		if err != nil {
			l.Close()
			return nil, err
		}
		population[i] = rec.ID
	}

	return &serveLedger{
		l:      l,
		ids:    population,
		direct: &wire.Loopback{L: l},
		close:  func() { l.Close() },
	}, nil
}

// obsLine compresses a registry snapshot into one terminal line: the
// validation total, the ledger-query count, and the p99 of the
// ledger-query validation path (the latency these harnesses exercise).
func obsLine(snap []obs.SeriesSnapshot) string {
	total, _ := obs.Value(snap, "irs_proxy_validations_total")
	queries, _ := obs.Value(snap, "irs_proxy_outcomes_total", obs.L("outcome", "ledger_query"))
	if h, ok := obs.Hist(snap, "irs_proxy_validate_seconds", obs.L("outcome", "ledger_query")); ok && h.Count > 0 {
		return fmt.Sprintf("obs: validations=%.0f ledger_queries=%.0f validate_p99=%.2fms",
			total, queries, h.P99*1000)
	}
	return fmt.Sprintf("obs: validations=%.0f ledger_queries=%.0f", total, queries)
}
