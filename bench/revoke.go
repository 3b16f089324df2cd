package main

import (
	"crypto/ed25519"
	"fmt"
	"sync"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
)

// revoke_sync: one op is one revocation round reaching every tier.
const (
	// roundRevokes ids are revoked per round and the same number from
	// roundsInFlight rounds earlier unrevoked, so the revoked
	// population, the filter size and the per-round cost are stationary
	// once roundsInFlight rounds have run (the warm-up block).
	roundRevokes   = 8
	roundsInFlight = 64
)

type revokeRig struct {
	st     *stack
	pop    *population
	viewer *viewer
	// views is the block's sequence of the pageSize-roundRevokes
	// Zipf-drawn ids that fill each round's page.
	views [][pageSize - roundRevokes]uint32
	// The churn pool is the tail of the population, outside the range
	// page views are drawn from, so an id's only viewing is in the round
	// that revokes it. next is the next unused pool index; seq is each
	// pool id's operation sequence number.
	poolStart int
	next      int
	seq       []uint64
	round     int
	ring      [roundsInFlight][roundRevokes]uint32
	lag       int
	pg        page
}

func buildRevoke(sc scale, seed int64, tmp string, tr *tracer) (rig, error) {
	st, err := newStack(tmp, ledgerTuning{}, tr)
	if err != nil {
		return nil, err
	}
	r := &revokeRig{st: st, poolStart: sc.shape.claims - sc.churnPool}
	if err := st.startProxy(sc.proxyCache); err != nil {
		r.close()
		return nil, err
	}
	if r.pop, err = populate(st, sc.shape, seed); err != nil {
		r.close()
		return nil, err
	}
	r.viewer = newViewer(st, 0)
	r.seq = make([]uint64, sc.churnPool)
	r.next = r.poolStart
	r.views = make([][pageSize - roundRevokes]uint32, sc.revokeOps)
	for i, pg := range zipfPages(sc.revokeOps, r.poolStart, clientSeed(seed, 0)) {
		copy(r.views[i][:], pg[:]) // the round's own ids take the page's other slots
	}
	return r, nil
}

func (r *revokeRig) stack() *stack { return r.st }
func (r *revokeRig) clients() int  { return 1 }
func (r *revokeRig) blockOps() int { return len(r.views) }
func (r *revokeRig) maxLag() int   { return r.lag }

// fresh returns the next pool index that is active.
func (r *revokeRig) fresh() (uint32, error) {
	for tries := 0; tries < len(r.seq); tries++ {
		idx := r.next
		if r.next++; r.next == len(r.pop.ids) {
			r.next = r.poolStart
		}
		if !r.pop.revoked[idx] {
			return uint32(idx), nil
		}
	}
	return 0, fmt.Errorf("revoke_sync: churn pool exhausted")
}

// apply signs and submits one owner operation over the wire.
func (r *revokeRig) apply(idx uint32, op ledger.Op) error {
	id := r.pop.ids[idx]
	seq := r.seq[int(idx)-r.poolStart] + 1
	sig := ed25519.Sign(r.pop.ownerPriv, ledger.OpMsg(id, op, seq))
	if err := r.st.svc.Apply(id, op, seq, sig); err != nil {
		return err
	}
	r.seq[int(idx)-r.poolStart] = seq
	return nil
}

func (r *revokeRig) do(_, i int, op int64) (time.Duration, bool) {
	var revoke, unrevoke [roundRevokes]uint32
	for j := range revoke {
		idx, err := r.fresh()
		if err != nil {
			return 0, false
		}
		revoke[j] = idx
	}
	slot := r.round % roundsInFlight
	stationary := r.round >= roundsInFlight
	unrevoke = r.ring[slot]
	r.ring[slot] = revoke
	r.round++

	root := r.st.tr.begin()
	t0 := time.Now()
	// The round's owner operations are independent, so they are sent
	// together and the ledger's group commit shares their fsyncs.
	var wg sync.WaitGroup
	errs := make([]error, 2*roundRevokes)
	for j := 0; j < roundRevokes; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			errs[j] = r.apply(revoke[j], ledger.OpRevoke)
		}(j)
		if stationary {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				errs[roundRevokes+j] = r.apply(unrevoke[j], ledger.OpUnrevoke)
			}(j)
		}
	}
	wg.Wait()
	ok := true
	for _, err := range errs {
		ok = ok && err == nil
	}
	for j := range revoke {
		r.pop.revoked[revoke[j]] = true
		if stationary {
			r.pop.revoked[unrevoke[j]] = false
		}
	}
	epoch, err := r.st.syncTiers(op)
	ok = ok && err == nil
	// The page is checked against the epoch the proxy holds now; any
	// lag behind the origin is a propagation failure.
	if held := r.st.proxy.Validator().Epoch(originID); err == nil && held != epoch {
		r.lag = max(r.lag, int(epoch-held))
		ok = false
	}
	copy(r.pg[:roundRevokes], revoke[:])
	copy(r.pg[roundRevokes:], r.views[i][:])
	_, viewOK := r.viewer.view(r.st, r.pop, &r.pg, op, -1, true)
	lat := time.Since(t0)
	r.st.tr.end(kOp, rpcOther, op, 0, root)
	return lat, ok && viewOK
}

func (r *revokeRig) betweenBlocks() int { return verifyPending([]*viewer{r.viewer}, r.st) }

func (r *revokeRig) someIDs() []ids.PhotoID {
	var pg page
	copy(pg[:], r.views[0][:])
	return pageIDs(r.pop, &pg)
}

func (r *revokeRig) keyInOp(int64, uint64) bool { return true } // one op in flight at a time

func (r *revokeRig) close() {
	if r.viewer != nil {
		r.viewer.close()
	}
	r.st.close()
}
