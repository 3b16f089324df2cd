package main

import (
	"bytes"
	"math/rand"
	"time"

	"irs/internal/aggregator"
	"irs/internal/bloom"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/phash"
	"irs/internal/photo"
	"irs/internal/watermark"
	"irs/internal/wire"
)

// Timed replays: where the benchmark wires no seam (the ledger's read
// path behind the wire server, the codec, the filter probe, the media
// kernels), the layer's public function is called directly on inputs
// the run recorded, after the timed blocks. Each replay runs
// replayRounds rounds and reports the median round.
const replayRounds = 9

func timeIt(fn func()) time.Duration {
	rounds := make([]time.Duration, replayRounds)
	for i := range rounds {
		t0 := time.Now()
		fn()
		rounds[i] = time.Since(t0)
	}
	return quantile(rounds, 0.5)
}

// replay returns per-layer metrics by name.
func replay(r rig) map[string]float64 {
	out := make(map[string]float64)
	st := r.stack()
	batch := replayBatch(r)

	// ledger read path, proof verification and the hop-2 codec, on one
	// recorded StatusBatch.
	var proofs []*ledger.StatusProof
	d := timeIt(func() { proofs, _ = st.origin.StatusBatch(batch) })
	if len(proofs) != len(batch) {
		return out // the ledger is gone or broken; the run already failed
	}
	n := float64(len(batch))
	out["ledger.status_batch_us_per_id"] = float64(d) / 1e3 / n
	key := st.origin.SigningKey()
	d = timeIt(func() {
		for _, p := range proofs {
			_ = ledger.VerifyProof(key, p, time.Time{}, 0)
		}
	})
	out["ledger.verify_proof_us"] = float64(d) / 1e3 / n
	const codecReps = 200
	var frame []byte
	d = timeIt(func() {
		for i := 0; i < codecReps; i++ {
			frame = wire.EncodeStatusBatchResp(frame[:0], proofs)
		}
	})
	out["wire.encode_ns_per_proof"] = float64(d) / codecReps / n
	d = timeIt(func() {
		for i := 0; i < codecReps; i++ {
			_, payload, err := wire.DecodeMsg(frame, wire.MaxFramePayload)
			if err == nil {
				_, _ = wire.DecodeStatusBatchResp(payload, func(int, []byte) error { return nil })
			}
		}
	})
	out["wire.decode_ns_per_proof"] = float64(d) / codecReps / n

	// Filter probe, and a delta for one round's churn.
	if _, f, ok := st.edge.Latest(); ok {
		keys := make([]uint64, len(batch))
		for i, id := range batch {
			keys[i] = ledger.FilterKey(id)
		}
		const probeReps = 2000
		hits := 0
		d = timeIt(func() {
			for i := 0; i < probeReps; i++ {
				for _, k := range keys {
					if f.Test(k) {
						hits++
					}
				}
			}
		})
		out["bloom.test_ns_per_id"] = float64(d) / probeReps / n
		next := f.Clone()
		for _, k := range keys[:min(len(keys), 2*roundRevokes)] {
			next.Add(k ^ 0x5bd1e995) // ids the filter has not seen
		}
		var payload []byte
		d = timeIt(func() { payload, _ = bloom.Update(f, next) })
		out["bloom.update_us"] = float64(d) / 1e3
		d = timeIt(func() { _, _ = bloom.ApplyUpdate(f, payload) })
		out["bloom.apply_update_us"] = float64(d) / 1e3

		if st.proxy != nil {
			v := st.proxy.Validator()
			const admitReps = 200 // all rounds together stay inside one client's burst
			d = timeIt(func() {
				for i := 0; i < admitReps; i++ {
					v.Admit("replay", pageSize)
				}
			})
			out["proxy.admit_ns_per_op"] = float64(d) / admitReps
			epoch := v.Epoch(originID)
			d = timeIt(func() { v.SetFilter(originID, epoch, f) })
			out["proxy.set_filter_us"] = float64(d) / 1e3
		}
	}

	if u, ok := r.(*uploadRig); ok {
		u.replayKernels(out)
	}
	return out
}

// replayBatch is a recorded StatusBatch argument, or, when the traced
// blocks sent none, a page of ids the ledger stores.
func replayBatch(r rig) []ids.PhotoID {
	if ts := r.stack().traced; ts != nil {
		ts.mu.Lock()
		defer ts.mu.Unlock()
		best := []ids.PhotoID(nil)
		for _, b := range ts.batches {
			if len(b) > len(best) {
				best = b
			}
		}
		if len(best) >= pageSize/2 {
			return best
		}
	}
	return r.someIDs()
}

// replayKernels times the upload pipeline's stages one image at a time,
// serially, over the corpus.
func (r *uploadRig) replayKernels(out map[string]float64) {
	var images []*photo.Image
	d := timeIt(func() {
		images = images[:0]
		for _, raw := range r.raws {
			if im, err := photo.DecodeIRSP(bytes.NewReader(raw)); err == nil {
				images = append(images, im)
			}
		}
	})
	n := float64(len(images))
	decode := float64(d) / 1e3 / n
	out["photo.decode_us_per_image"] = decode

	// What the aggregator's label extraction does: the aligned pass,
	// then the full geometric search when that finds nothing.
	cfg := watermark.DefaultConfig()
	d = timeIt(func() {
		for _, im := range images {
			if _, err := watermark.ExtractAligned(im, cfg); err != nil {
				_, _ = watermark.Extract(im, cfg)
			}
		}
	})
	extract := float64(d) / 1e3 / n
	out["watermark.extract_us_per_image"] = extract

	sigs := make([]phash.Signature, len(images))
	d = timeIt(func() {
		for i, im := range images {
			sigs[i] = phash.NewSignature(im)
		}
	})
	sig := float64(d) / 1e3 / n
	out["phash.signature_us_per_image"] = sig

	// A standalone index of the size a site would hold: seeded random
	// signatures plus the corpus's own.
	idx := aggregator.NewSigIndex(r.aggCfg.Index)
	rng := rand.New(rand.NewSource(int64(r.indexSeed)))
	seedSigs := make([]phash.Signature, r.indexSeed)
	seedIDs := make([]ids.PhotoID, r.indexSeed)
	for i := range seedSigs {
		seedSigs[i] = phash.Signature{A: phash.Hash(rng.Uint64()), D: phash.Hash(rng.Uint64()), P: phash.Hash(rng.Uint64())}
		seedIDs[i].Ledger = originID
		rng.Read(seedIDs[i].Rec[:])
	}
	idx.AddAll(seedSigs, seedIDs)
	idx.AddAll(sigs[:len(sigs)/2], seedIDs[:len(sigs)/2])
	d = timeIt(func() {
		for _, s := range sigs {
			idx.Lookup(s)
		}
	})
	lookup := float64(d) / 1e3 / n
	out["aggregator.index_lookup_us_per_image"] = lookup

	// Serial stage time of one album, for the pipeline-overlap ratio.
	out["aggregator.serial_ms_per_album"] = (decode + extract + sig + lookup) * albumSize / 1e3
}
