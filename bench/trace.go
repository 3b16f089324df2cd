package main

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/proxy"
	"irs/internal/topology"
	"irs/internal/wire"
)

// Tracing. Spans are recorded by the benchmark itself, at the seams it
// wires: http.Handler wrappers around the three servers, a wire.Service
// decorator between every caller and the wire client, a topology.Syncer
// decorator between tiers, and explicit spans in the workload loops.
// Nothing inside the program under test is touched.
//
// A span does not know its parent when it is recorded (the program's
// call paths carry no context). Parents are resolved per block, after
// the block's clock has stopped: the parent of a span is the tightest
// span that encloses it in time, has a kind that can be its parent,
// and belongs to the same op where both sides know their op.

// kind names the seam a span was recorded at.
type kind uint8

const (
	kOp            kind = iota // one whole op, client-observed (the root)
	kHop1                      // a request over hop 1, client-observed
	kProxyHandler              // proxy.Server.ServeHTTP
	kAggHandler                // aggregator.Server.ServeHTTP
	kRPC                       // one wire.Service call, caller-observed (hop 2)
	kWireHandler               // wire.Server.ServeHTTP
	kBuildSnapshot             // ledger.BuildSnapshot
	kPullRegional              // regional FilterCache.Pull from the origin
	kPullEdge                  // edge FilterCache.Pull from the regional
	kSyncServe                 // regional FilterCache.FilterSync serving the edge
	kSetFilter                 // proxy.Validator.SetFilter
	numKinds
)

var kindNames = [numKinds]string{
	"op", "hop1", "proxy.handler", "aggregator.handler", "wire.rpc",
	"wire.server_handler", "ledger.build_snapshot", "topology.pull_regional",
	"topology.pull_edge", "topology.sync_serve", "proxy.set_filter",
}

// kindLayer is the layer a span's self time is billed to.
var kindLayer = [numKinds]string{
	"client", "wire.hop1", "proxy", "aggregator", "wire.hop2",
	"ledger", "ledger", "topology", "topology", "bloom", "proxy",
}

// parentKinds[k] is the set of kinds that may be the parent of k.
var parentKinds = [numKinds]uint16{
	kHop1:          1 << kOp,
	kProxyHandler:  1 << kHop1,
	kAggHandler:    1 << kHop1,
	kRPC:           1<<kProxyHandler | 1<<kAggHandler | 1<<kOp | 1<<kPullRegional,
	kWireHandler:   1 << kRPC,
	kBuildSnapshot: 1 << kOp,
	kPullRegional:  1 << kOp,
	kPullEdge:      1 << kOp,
	kSyncServe:     1 << kPullEdge,
	kSetFilter:     1 << kOp,
}

// rpc is the kind of a ledger RPC, the sub-kind of kRPC and
// kWireHandler spans and the index of the always-on RPC counters.
type rpc uint8

const (
	rpcClaim rpc = iota
	rpcOp
	rpcStatus
	rpcStatusBatch
	rpcFilterSync
	rpcOther
	numRPCs
)

var rpcNames = [numRPCs]string{"claim", "op", "status", "status_batch", "filter_sync", "other"}

func rpcOfPath(path string) rpc {
	switch path {
	case "/v1/claim":
		return rpcClaim
	case "/v1/op":
		return rpcOp
	case "/v1/status":
		return rpcStatus
	case "/v1/status/batch":
		return rpcStatusBatch
	case "/v1/filter/sync":
		return rpcFilterSync
	}
	return rpcOther
}

const noOp = -1

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	Kind   kind
	Sub    rpc
	Op     int64  // noOp when the seam could not know
	Key    uint64 // content key for linking (first id of a batch), 0 if none
	Start  int64
	End    int64
	Parent int // index into the block's span slice, -1 for roots and orphans
}

// tracer records spans while on. A nil tracer is valid and records
// nothing, so untraced runs carry no tracing branches beyond nil checks.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin returns the span start, or -1 when tracing is off.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return int64(time.Since(t.epoch))
}

// end records a span begun with begin.
func (t *tracer) end(k kind, sub rpc, op int64, key uint64, start int64) {
	if start < 0 {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Kind: k, Sub: sub, Op: op, Key: key, Start: start, End: end, Parent: -1})
	t.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = make([]span, 0, len(s))
	return s
}

// opHeader carries the op id over hop 1 so the server-side handler
// span can name its op exactly.
const opHeader = "X-Bench-Op"

// hop1Transport is each closed-loop client's RoundTripper: it presents
// the client's admission key and, when tracing, the current op id. One
// instance per client, used by one goroutine at a time.
type hop1Transport struct {
	inner     http.RoundTripper
	clientKey string
	tr        *tracer
	op        int64 // set by the client loop before each op
}

func (h *hop1Transport) RoundTrip(r *http.Request) (*http.Response, error) {
	r.Header.Set(proxy.ClientHeader, h.clientKey)
	if h.tr != nil && h.tr.on.Load() {
		r.Header.Set(opHeader, strconv.FormatInt(h.op, 10))
	}
	return h.inner.RoundTrip(r)
}

// handlerSeam wraps one of the three servers. It always counts (the
// end-to-end metric upstream_rpcs_per_op comes from these counters) and
// records a span when tracing is on. The inner handler is swappable
// because upload_ingest gives every pass a fresh aggregator.
type handlerSeam struct {
	inner atomic.Pointer[http.Handler]
	kind  kind
	tr    *tracer
	// rpcs counts requests by RPC kind; nil for the hop-1 servers.
	rpcs *[numRPCs]atomic.Uint64
}

func newHandlerSeam(k kind, inner http.Handler, tr *tracer) *handlerSeam {
	s := &handlerSeam{kind: k, tr: tr}
	s.inner.Store(&inner)
	return s
}

func (s *handlerSeam) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sub := rpcOther
	if s.rpcs != nil {
		sub = rpcOfPath(r.URL.Path)
		s.rpcs[sub].Add(1)
	}
	start := s.tr.begin()
	(*s.inner.Load()).ServeHTTP(w, r)
	if start >= 0 {
		op := int64(noOp)
		if v := r.Header.Get(opHeader); v != "" {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				op = n
			}
		}
		s.tr.end(s.kind, sub, op, 0, start)
	}
}

// tracedService decorates the wire client every tier calls the origin
// ledger through. Only the methods the workloads use record spans; the
// rest pass through.
type tracedService struct {
	wire.Service
	tr *tracer
	// batches keeps the first keptBatches traced StatusBatch arguments
	// for the timed replays (guarded by mu).
	mu      sync.Mutex
	batches [][]ids.PhotoID
}

const keptBatches = 256

func (s *tracedService) Claim(req *wire.ClaimRequest) (ledger.Receipt, error) {
	start := s.tr.begin()
	r, err := s.Service.Claim(req)
	s.tr.end(kRPC, rpcClaim, noOp, 0, start)
	return r, err
}

func (s *tracedService) Apply(id ids.PhotoID, op ledger.Op, seq uint64, sig []byte) error {
	start := s.tr.begin()
	err := s.Service.Apply(id, op, seq, sig)
	s.tr.end(kRPC, rpcOp, noOp, id.Hash64(), start)
	return err
}

func (s *tracedService) Status(id ids.PhotoID) (*ledger.StatusProof, error) {
	start := s.tr.begin()
	p, err := s.Service.Status(id)
	s.tr.end(kRPC, rpcStatus, noOp, id.Hash64(), start)
	return p, err
}

func (s *tracedService) StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	start := s.tr.begin()
	ps, err := s.Service.StatusBatch(batch)
	if start >= 0 && len(batch) > 0 {
		s.tr.end(kRPC, rpcStatusBatch, noOp, batch[0].Hash64(), start)
		s.mu.Lock()
		if len(s.batches) < keptBatches {
			s.batches = append(s.batches, append([]ids.PhotoID(nil), batch...))
		}
		s.mu.Unlock()
	}
	return ps, err
}

func (s *tracedService) FilterSync(from uint64, baseHash []byte) ([]byte, uint64, error) {
	start := s.tr.begin()
	p, latest, err := s.Service.FilterSync(from, baseHash)
	s.tr.end(kRPC, rpcFilterSync, noOp, 0, start)
	return p, latest, err
}

// tracedSyncer decorates a tier's upstream. It always classifies the
// payloads it relays (delta or snapshot) and records a span when
// tracing is on.
type tracedSyncer struct {
	inner topology.Syncer
	tr    *tracer
	kind  kind // kSyncServe for an in-process upstream; numKinds for none
	// Payload accounting since the last reset.
	deltas, snapshots atomic.Uint64
	bytes             atomic.Uint64
}

func (s *tracedSyncer) FilterSync(from uint64, baseHash []byte) ([]byte, uint64, error) {
	start := int64(-1)
	if s.kind != numKinds {
		start = s.tr.begin()
	}
	p, latest, err := s.inner.FilterSync(from, baseHash)
	if s.kind != numKinds {
		s.tr.end(s.kind, rpcOther, noOp, 0, start)
	}
	if err == nil && len(p) > 0 {
		if len(p) >= 6 && string(p[:6]) == "IRSBF1" {
			s.snapshots.Add(1)
		} else {
			s.deltas.Add(1)
		}
		s.bytes.Add(uint64(len(p)))
	}
	return p, latest, err
}

// link resolves every span's parent in place and propagates op ids
// downward. keyInOp, when non-nil, reports whether a content key belongs
// to an op; it breaks ties between concurrent ops whose handler spans
// both enclose an RPC. It returns the number of orphans (non-root spans
// no candidate enclosed).
func link(spans []span, keyInOp func(op int64, key uint64) bool) (orphans int) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := &spans[order[a]], &spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		if sa.End != sb.End {
			return sa.End > sb.End // the enclosing span first
		}
		return sa.Kind < sb.Kind
	})
	var open []int // indices of spans that may still enclose later ones
	for _, i := range order {
		s := &spans[i]
		live := open[:0]
		for _, j := range open {
			if spans[j].End >= s.Start {
				live = append(live, j)
			}
		}
		open = live
		if s.Kind != kOp {
			best := -1
			bestKeyed := false
			for _, j := range open {
				p := &spans[j]
				if parentKinds[s.Kind]&(1<<p.Kind) == 0 || p.End < s.End {
					continue
				}
				if s.Op != noOp && p.Op != noOp && s.Op != p.Op {
					continue
				}
				if s.Kind == kWireHandler && p.Sub != s.Sub {
					continue
				}
				keyed := s.Key != 0 && p.Op != noOp && keyInOp != nil && keyInOp(p.Op, s.Key)
				if best < 0 || (keyed && !bestKeyed) ||
					(keyed == bestKeyed && p.Start > spans[best].Start) {
					best, bestKeyed = j, keyed
				}
			}
			if best < 0 {
				orphans++
			} else {
				s.Parent = best
				if s.Op == noOp {
					s.Op = spans[best].Op
				}
			}
		}
		open = append(open, i)
	}
	return orphans
}

// children groups span indices by parent, each group in start order.
func children(spans []span) map[int][]int {
	kids := make(map[int][]int)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	for _, k := range kids {
		sort.Slice(k, func(a, b int) bool { return spans[k[a]].Start < spans[k[b]].Start })
	}
	return kids
}

// selfTime is the span's duration minus the part of it its children
// cover (children may overlap each other).
func selfTime(spans []span, kids map[int][]int, i int) int64 {
	s := &spans[i]
	covered, cursor := int64(0), s.Start
	for _, c := range kids[i] { // start order
		cs, ce := spans[c].Start, spans[c].End
		if cs < cursor {
			cs = cursor
		}
		if ce > cs {
			covered += ce - cs
			cursor = ce
		}
	}
	return s.End - s.Start - covered
}

// blockingPath splits the root's interval among the spans that blocked
// its completion: walking back from the root's end, the time not
// covered by a child is the span's own, and among overlapping children
// the one that finished last is the one the parent waited for. The
// per-kind totals it adds to sum to exactly the root's duration.
func blockingPath(spans []span, kids map[int][]int, root int, perKind *[numKinds]int64) {
	var walk func(i int, from, to int64)
	walk = func(i int, from, to int64) {
		cursor := to
		ks := kids[i]
		for cursor > from {
			// The child that ends last at or before the cursor.
			best := -1
			for _, c := range ks {
				if spans[c].End <= cursor && spans[c].End > from &&
					(best < 0 || spans[c].End > spans[best].End) {
					best = c
				}
			}
			if best < 0 {
				break
			}
			perKind[spans[i].Kind] += cursor - spans[best].End
			lo := spans[best].Start
			if lo < from {
				lo = from
			}
			walk(best, lo, spans[best].End)
			cursor = lo
		}
		perKind[spans[i].Kind] += cursor - from
	}
	walk(root, spans[root].Start, spans[root].End)
}

// Interface checks for the decorators.
var (
	_ wire.Service    = (*tracedService)(nil)
	_ topology.Syncer = (*tracedSyncer)(nil)
)
