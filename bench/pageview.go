package main

import (
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/proxy"
	"irs/internal/wire"
)

// The two page-view workloads share a rig and differ only in which ids
// land on a page.

// maxClients caps the closed-loop client count.
const maxClients = 4

func (s scale) pageviewClients() int {
	if s.viewers > 0 {
		return s.viewers
	}
	return min(runtime.NumCPU(), maxClients)
}

// proofCheck is one proof whose signature is verified off the clock.
type proofCheck struct {
	raw   []byte
	id    ids.PhotoID
	state ledger.State
}

// viewer is one closed-loop browser: one keep-alive connection to the
// proxy, one page in flight.
type viewer struct {
	pc      *proxy.Client
	rt      *hop1Transport
	batch   []ids.PhotoID
	pending []proofCheck
}

func newViewer(st *stack, n int) *viewer {
	rt := &hop1Transport{
		inner:     &http.Transport{MaxIdleConnsPerHost: 1},
		clientKey: "viewer-" + strconv.Itoa(n),
		tr:        st.tr,
	}
	return &viewer{
		pc:    proxy.NewClientHTTP(st.front.url(), wire.CodecBinary, &http.Client{Transport: rt}),
		rt:    rt,
		batch: make([]ids.PhotoID, pageSize),
	}
}

func (v *viewer) close() { v.rt.inner.(*http.Transport).CloseIdleConnections() }

// view validates one page and checks every answer against the ground
// truth: a revoked photo must not be displayable, an active one must
// be, and every answer that did not come from the filter must carry a
// proof for the right id. With sample set, the proofs are kept for
// signature verification between blocks. root is the start of the op's
// root span when the page view is the whole op, or -1. It returns the
// client-observed latency of the page.
func (v *viewer) view(st *stack, pop *population, pg *page, op int64, root int64, sample bool) (time.Duration, bool) {
	for j, idx := range pg {
		v.batch[j] = pop.ids[idx]
	}
	v.rt.op = op
	t0 := time.Now()
	hop := st.tr.begin()
	res, err := v.pc.ValidateBatch(v.batch)
	st.tr.end(kHop1, rpcOther, op, 0, hop)
	lat := time.Since(t0)
	st.tr.end(kOp, rpcOther, op, 0, root) // no-op when the caller owns the root (root < 0)
	if err != nil || len(res) != pageSize {
		return lat, false
	}
	ok := true
	for j, idx := range pg {
		want := ledger.StateActive
		if pop.revoked[idx] {
			want = ledger.StateRevoked
		}
		a := &res[j]
		if a.State != want || a.Displayable != (want == ledger.StateActive) {
			ok = false
			continue
		}
		if a.Source == proxy.SourceFilter {
			continue
		}
		if len(a.Proof) != ledger.MarshaledProofSize {
			ok = false
			continue
		}
		if sample {
			v.pending = append(v.pending, proofCheck{raw: a.Proof, id: v.batch[j], state: want})
		}
	}
	return lat, ok
}

// verifyPending checks the kept proofs: each must decode, name the id
// and state it was returned for, and verify under the origin's signing
// key. It returns the number that do not.
func verifyPending(viewers []*viewer, st *stack) int {
	key := st.origin.SigningKey()
	bad := make([]int, len(viewers))
	var wg sync.WaitGroup
	for n, v := range viewers {
		wg.Add(1)
		go func(n int, v *viewer) {
			defer wg.Done()
			for _, c := range v.pending {
				p, err := ledger.UnmarshalProof(c.raw)
				if err != nil || p.ID != c.id || p.State != c.state ||
					ledger.VerifyProof(key, p, time.Time{}, 0) != nil {
					bad[n]++
				}
			}
			v.pending = v.pending[:0]
		}(n, v)
	}
	wg.Wait()
	total := 0
	for _, b := range bad {
		total += b
	}
	return total
}

type pageviewRig struct {
	st      *stack
	pop     *population
	viewers []*viewer
	pages   [][]page // per client: the block's page sequence, replayed every block
	sample  int      // proofs of every sample-th page are signature-checked
}

// buildPageview sets a page-view workload up. draw makes one client's
// page sequence from the population.
func buildPageview(sc scale, seed int64, tmp string, tr *tracer, ops int,
	draw func(pop *population, n int, seed int64) []page) (rig, error) {
	st, err := newStack(tmp, ledgerTuning{}, tr)
	if err != nil {
		return nil, err
	}
	r := &pageviewRig{st: st, sample: max(1, ops/sc.sampledPages)}
	if err := st.startProxy(sc.proxyCache); err != nil {
		r.close()
		return nil, err
	}
	if r.pop, err = populate(st, sc.shape, seed); err != nil {
		r.close()
		return nil, err
	}
	for c := 0; c < sc.pageviewClients(); c++ {
		r.viewers = append(r.viewers, newViewer(st, c))
		r.pages = append(r.pages, draw(r.pop, ops, clientSeed(seed, c)))
	}
	return r, nil
}

func (r *pageviewRig) stack() *stack { return r.st }
func (r *pageviewRig) clients() int  { return len(r.viewers) }
func (r *pageviewRig) blockOps() int { return len(r.pages[0]) }

func (r *pageviewRig) do(c, i int, op int64) (time.Duration, bool) {
	return r.viewers[c].view(r.st, r.pop, &r.pages[c][i], op, r.st.tr.begin(), i%r.sample == 0)
}

func (r *pageviewRig) betweenBlocks() int { return verifyPending(r.viewers, r.st) }

func (r *pageviewRig) someIDs() []ids.PhotoID { return pageIDs(r.pop, &r.pages[0][0]) }

func pageIDs(pop *population, pg *page) []ids.PhotoID {
	out := make([]ids.PhotoID, len(pg))
	for j, idx := range pg {
		out[j] = pop.ids[idx]
	}
	return out
}

func (r *pageviewRig) keyInOp(op int64, key uint64) bool {
	per := int64(r.blockOps())
	pg := &r.pages[op/per][op%per]
	for _, idx := range pg {
		if r.pop.ids[idx].Hash64() == key {
			return true
		}
	}
	return false
}

func (r *pageviewRig) close() {
	for _, v := range r.viewers {
		v.close()
	}
	r.st.close()
}
