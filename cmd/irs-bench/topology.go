package main

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"irs/internal/bloom"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/netsim"
	"irs/internal/obs"
	"irs/internal/topology"
	"irs/internal/tsa"
	"irs/internal/wire"
)

// The -topology harness measures the tradeoff the multi-tier
// deployment buys: filter staleness (how long a fresh revocation takes
// to reach the edge filters, growing one sync interval per hop) versus
// origin ledger load (what fraction of the browser population's
// traffic ever touches the authoritative ledger).
//
// The simulation runs in virtual time on the netsim scheduler, so WAN
// latencies, losses and sync cadences are deterministic under -seed.
// Browsers are modelled in aggregate: each edge carries its share of
// the -topology-browsers population as an arithmetic page-arrival
// rate, and a bounded sample of pages per tick is actually validated —
// Zipf-drawn identifier pages tested against the edge's filter, with
// filter-positive identifiers resolved by a StatusBatch read over a
// netsim.Faulty WAN link. Sampled outcomes are weighted back up to the
// full arrival rate, so reported QPS and availability describe the
// whole population while the simulation stays tractable.
//
// Arms:
//
//   - tiered@I: origin → R regional replicas → R×E edges. Filters flow
//     origin ledger → regional window → edge window (bloom.Window) via the
//     versioned sync protocol (size-gated deltas, snapshot fallback);
//     records flow through signed checkpoint shipping, and every
//     replica must pass the StateHash gate before its reads count.
//     Swept over -topology-intervals for the tradeoff curve.
//
//   - flat: one proxy tier pulling filters straight from the origin at
//     the fixed baseline interval, resolving every filter-positive
//     identifier at the origin itself. This is the PR-6 deployment
//     shape, and the denominator of the headline.
//
// Mid-run, -topology-revokes claims are revoked at the origin; each
// (revocation, edge) pair yields one staleness sample when an edge
// first installs a filter that flags the revoked claim.

// topologyConfig carries the -topology-* flags.
type topologyConfig struct {
	Out          string
	Browsers     int
	IDs          int
	Revoked      float64
	Regionals    int
	Edges        int // per regional
	Intervals    []int
	WindowSec    int
	Revokes      int
	PageSize     int
	PagesPerHour float64
	SamplePages  int // validated pages per edge per tick
	Zipf         float64
	Seed         int64
	// Wire lists the codecs to run the resolution plane under (-wire);
	// codec twins of an arm replay identical traffic, differing only in
	// serialized bytes.
	Wire []wire.Codec
}

// topologyArm is one measured configuration.
type topologyArm struct {
	Arm         string `json:"arm"`
	IntervalSec int    `json:"interval_sec"`
	// Origin load: every request that reached the origin ledger —
	// weighted StatusBatch resolutions (flat arm) plus filter syncs and
	// checkpoint/log fetches (both arms).
	OriginQPS      float64 `json:"origin_qps"`
	OriginRequests float64 `json:"origin_requests"`
	// Replica load: weighted StatusBatch resolutions served by the
	// regional replicas (tiered arms only).
	ReplicaQPS float64 `json:"replica_qps"`
	// Availability: weighted fraction of page views fully served
	// (every filter-positive identifier resolved).
	Availability float64 `json:"availability"`
	// Staleness: revocation→edge-filter lag over (revocation, edge)
	// pairs.
	StalenessMeanSec float64 `json:"staleness_mean_sec"`
	StalenessP95Sec  float64 `json:"staleness_p95_sec"`
	StalenessSamples int     `json:"staleness_samples"`
	// Filter plane bytes moved (all hops) and what they were.
	SyncBytes     uint64  `json:"filter_sync_bytes"`
	ResolveP95Ms  float64 `json:"resolve_p95_ms"`
	PagesModelled float64 `json:"pages_modelled"`
	PagesSampled  int     `json:"pages_sampled"`
	// Resolution plane wire accounting: the codec every sampled
	// StatusBatch round-trip was serialized under, the bytes that cost,
	// and (IRSW1 arms) how many decoded proofs the in-sim gate verified
	// byte-identical against the direct answer.
	Wire             string `json:"wire"`
	ResolveWireBytes uint64 `json:"resolve_wire_bytes"`
	WireGateProofs   int    `json:"wire_gate_proofs,omitempty"`
	// ReplicaGate records the StateHash equivalence check that ran
	// before any replica read was timed.
	ReplicaGate *topologyGate        `json:"replica_gate,omitempty"`
	Metrics     []obs.SeriesSnapshot `json:"metrics,omitempty"`
}

// topologyGate is the pre-timing replica admission check.
type topologyGate struct {
	Replicas       int  `json:"replicas"`
	AllReady       bool `json:"all_ready"`
	StateHashMatch bool `json:"state_hash_match"`
}

// topologyReport is the BENCH_topology.json document.
type topologyReport struct {
	Seed         int64         `json:"seed"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	Browsers     int           `json:"browsers"`
	IDs          int           `json:"ids"`
	Revoked      float64       `json:"revoked_fraction"`
	Regionals    int           `json:"regionals"`
	EdgesPer     int           `json:"edges_per_regional"`
	PageSize     int           `json:"page_size"`
	PagesPerHour float64       `json:"pages_per_browser_hour"`
	Zipf         float64       `json:"zipf_s"`
	WindowSec    int           `json:"window_sec"`
	Revokes      int           `json:"revokes"`
	Arms         []topologyArm `json:"arms"`
	// The headline: origin QPS of the flat single-proxy deployment over
	// the tiered deployment at the same (baseline) sync interval, at
	// equal availability.
	OriginLoadReduction float64 `json:"origin_qps_reduction_tiered_vs_flat"`
	AvailabilityDelta   float64 `json:"availability_delta_flat_minus_tiered"`
	// WireResolveBytesRatio compares resolution-plane bytes (JSON over
	// IRSW1) at the baseline tiered interval, after the codec-twin gate
	// confirmed identical decisions. Zero when only one codec ran.
	WireResolveBytesRatio float64 `json:"wire_resolve_bytes_json_over_binary,omitempty"`
	Note                  string  `json:"note"`
}

// baselineIntervalSec is the sync cadence of the flat arm and of the
// tiered arm the headline compares it against.
const baselineIntervalSec = 60

// fabTopologyRecords builds the claim population: fully formed records
// (StateHash canonicalizes every field) with revocations spread
// pseudo-uniformly across the index space so Zipf popularity and
// revocation state stay independent.
func fabTopologyRecords(lid ids.LedgerID, n int, revokedFrac float64, rng *rand.Rand) ([]ledger.Record, error) {
	recs := make([]ledger.Record, n)
	cut := uint32(revokedFrac * 1000)
	for i := range recs {
		id, err := ids.NewFrom(lid, rng)
		if err != nil {
			return nil, err
		}
		r := &recs[i]
		r.ID = id
		r.PubKey = make([]byte, ed25519.PublicKeySize)
		rng.Read(r.PubKey)
		r.HashSig = make([]byte, ed25519.SignatureSize)
		rng.Read(r.HashSig)
		rng.Read(r.ContentHash[:])
		sig := make([]byte, ed25519.SignatureSize)
		rng.Read(sig)
		r.Timestamp = &tsa.Token{Serial: uint64(i), Time: time.Unix(1700000000+int64(i), 0).UTC(), Sig: sig}
		// The token covers the content hash, as a claim's does; the draw
		// stays so that the rest of the population is unchanged.
		rng.Read(r.Timestamp.Digest[:])
		r.Timestamp.Digest = r.ContentHash
		r.State = ledger.StateActive
		if uint32(i)*2654435761%1000 < cut {
			r.State = ledger.StateRevoked
		}
	}
	return recs, nil
}

// revocationEvent is one mid-run revocation at the origin.
type revocationEvent struct {
	idx int           // population index
	key uint64        // ledger.FilterKey of the claim
	at  time.Duration // virtual revocation time
}

// planRevocations picks cfg.Revokes active claims and spreads their
// revocation times across the first 60% of the window, leaving every
// sync interval in the sweep room to propagate before the window ends.
func planRevocations(cfg topologyConfig, recs []ledger.Record, rng *rand.Rand) []revocationEvent {
	evs := make([]revocationEvent, 0, cfg.Revokes)
	seen := make(map[int]bool)
	for len(evs) < cfg.Revokes {
		idx := rng.Intn(len(recs))
		if seen[idx] || recs[idx].State != ledger.StateActive {
			continue
		}
		seen[idx] = true
		at := time.Duration(float64(cfg.WindowSec) * 0.6 * rng.Float64() * float64(time.Second))
		evs = append(evs, revocationEvent{idx: idx, key: ledger.FilterKey(recs[idx].ID), at: at})
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
	return evs
}

// wanLink wraps a Faulty link with virtual-latency accounting.
type wanLink struct {
	f     *netsim.Faulty
	sched *netsim.Scheduler
}

func newWANLink(sched *netsim.Scheduler, median time.Duration, loss float64, seed int64) (*wanLink, error) {
	link := netsim.NewLink(sched, netsim.LogNormal{Median: median, Sigma: 0.3}, 1<<14)
	f, err := netsim.NewFaulty(link, netsim.FaultConfig{Seed: seed, LossProb: loss})
	if err != nil {
		return nil, err
	}
	return &wanLink{f: f, sched: sched}, nil
}

// request schedules done(err, rtt) after the link's sampled latency
// (or the loss surfaces as a non-nil err).
func (w *wanLink) request(done func(err error, rtt time.Duration)) {
	start := w.sched.Now()
	w.f.Request(func(err error) { done(err, w.sched.Now()-start) })
}

// wireResolve performs one StatusBatch resolution with the exchange
// serialized under the arm's codec: the request and the response are
// actually encoded, their bytes accounted to the resolution plane, and
// under IRSW1 the response is decoded back with every proof, rebuilt
// from its tail as the proof of the id asked about, required
// byte-identical to the directly returned one — the sim's form of the
// identical-results gate. Codec or gate failures panic (they are
// harness invariant violations, not simulated faults); the returned
// error is the backend query's.
func wireResolve(codec wire.Codec, q func([]ids.PhotoID) ([]*ledger.StatusProof, error),
	batch []ids.PhotoID, wireBytes *uint64, gateProofs *int) error {
	if codec == wire.CodecBinary {
		buf := wire.GetBuf()
		defer wire.PutBuf(buf)
		*buf = wire.EncodeStatusBatchReq((*buf)[:0], batch)
		*wireBytes += uint64(len(*buf))
		proofs, err := q(batch)
		if err != nil {
			return err
		}
		*buf = wire.EncodeStatusBatchResp((*buf)[:0], proofs)
		*wireBytes += uint64(len(*buf))
		kind, payload, derr := wire.DecodeMsg(*buf, wire.MaxFramePayload)
		if derr != nil || kind != wire.MsgStatusBatchResp {
			panic(fmt.Sprintf("topology: IRSW1 self-decode: kind %d err %v", kind, derr))
		}
		var rebuilt []byte
		n, derr := wire.DecodeStatusBatchResp(payload, func(i int, tail []byte) error {
			rebuilt = append(ledger.AppendProofHead(rebuilt[:0], batch[i]), tail...)
			if !bytes.Equal(rebuilt, proofs[i].Marshal()) {
				return fmt.Errorf("proof %d differs from the direct answer", i)
			}
			return nil
		})
		if derr != nil || n != len(proofs) {
			panic(fmt.Sprintf("topology: IRSW1 gate: n=%d err %v", n, derr))
		}
		*gateProofs += n
		return nil
	}
	req := wire.StatusBatchRequest{IDs: make([]string, len(batch))}
	for i, id := range batch {
		req.IDs[i] = id.String()
	}
	doc, merr := json.Marshal(&req)
	if merr != nil {
		panic(fmt.Sprintf("topology: JSON request encode: %v", merr))
	}
	*wireBytes += uint64(len(doc))
	proofs, err := q(batch)
	if err != nil {
		return err
	}
	resp := wire.StatusBatchResponse{Proofs: make([][]byte, len(proofs))}
	for i, p := range proofs {
		if p != nil {
			resp.Proofs[i] = p.Marshal()
		}
	}
	doc, merr = json.Marshal(&resp)
	if merr != nil {
		panic(fmt.Sprintf("topology: JSON response encode: %v", merr))
	}
	*wireBytes += uint64(len(doc))
	return nil
}

// edgeSim is the per-edge serving state of one arm.
type edgeSim struct {
	window   *bloom.Window
	rng      *rand.Rand
	zipf     *rand.Zipf
	link     *wanLink // resolution + filter-pull WAN hop
	seenRevs map[int]bool
}

// installCheck records staleness samples for every planned revocation
// the edge's newest filter now flags.
func (e *edgeSim) installCheck(now time.Duration, revs []revocationEvent, samples *[]float64) {
	_, f, ok := e.window.Latest()
	if !ok {
		return
	}
	for i := range revs {
		if revs[i].at > now || e.seenRevs[revs[i].idx] {
			continue
		}
		if f.Test(revs[i].key) {
			e.seenRevs[revs[i].idx] = true
			*samples = append(*samples, (now - revs[i].at).Seconds())
		}
	}
}

// runTopologyArm simulates one arm over the window. flat selects the
// single-proxy baseline shape; intervalSec is the filter/replica sync
// cadence of every hop; codec is the serialization the resolution
// plane is accounted (and, for IRSW1, gate-checked) under. The arm
// seed deliberately excludes the codec, so codec twins replay
// identical traffic and must land identical decisions.
func runTopologyArm(cfg topologyConfig, intervalSec int, flat bool, codec wire.Codec) (topologyArm, error) {
	arm := topologyArm{IntervalSec: intervalSec, Wire: codec.String()}
	suffix := ""
	if codec != wire.CodecJSON {
		suffix = "/wire=" + codec.String()
	}
	if flat {
		arm.Arm = "flat" + suffix
	} else {
		arm.Arm = fmt.Sprintf("tiered@%ds%s", intervalSec, suffix)
	}
	armSeed := cfg.Seed ^ int64(intervalSec)<<16
	if flat {
		armSeed ^= 0x0f1a7
	}
	rng := rand.New(rand.NewSource(armSeed))

	reg := obs.NewRegistry()
	l, err := ledger.New(ledger.Config{ID: 1, Rand: rand.New(rand.NewSource(armSeed ^ 0x1ed9e4))})
	if err != nil {
		return arm, err
	}
	defer l.Close()
	recs, err := fabTopologyRecords(1, cfg.IDs, cfg.Revoked, rng)
	if err != nil {
		return arm, err
	}
	origin, err := topology.NewOrigin(l, reg)
	if err != nil {
		return arm, err
	}
	if err := origin.Restore(recs); err != nil {
		return arm, err
	}
	if _, err := l.BuildSnapshot(); err != nil {
		return arm, err
	}
	revs := planRevocations(cfg, recs, rng)

	sched := netsim.NewScheduler(armSeed ^ 0x5c4ed)
	interval := time.Duration(intervalSec) * time.Second
	window := time.Duration(cfg.WindowSec) * time.Second
	const tick = time.Second

	// Topology shape. The flat arm is one proxy carrying the whole
	// population, syncing and resolving directly against the origin.
	nRegionals, nEdgesPer := cfg.Regionals, cfg.Edges
	if flat {
		nRegionals, nEdgesPer = 1, 1
	}
	nEdges := nRegionals * nEdgesPer
	browsersPerEdge := float64(cfg.Browsers) / float64(nEdges)
	pagesPerEdgeTick := browsersPerEdge * cfg.PagesPerHour / 3600 * tick.Seconds()

	// Counters. Weighted counts scale sampled pages back up to the full
	// modelled arrival rate; origin sync traffic is counted raw (it
	// does not scale with browsers — that is the point).
	var originReqs, replicaReqs float64
	var servedW, totalW float64
	var syncBytes, resolveWireBytes uint64
	var gateProofs int
	var staleness []float64
	var resolveRTTs []time.Duration
	lastCP := topology.Checkpoint{}
	dirty := false

	// Record plane + warm start (not timed: cold sync is PR-7's story,
	// the window measures steady state).
	regionalWindows := make([]*bloom.Window, nRegionals)
	replicas := make([]*topology.Replica, nRegionals)
	regionalLinks := make([]*wanLink, nRegionals)
	cp, err := origin.Checkpoint()
	if err != nil {
		return arm, err
	}
	lastCP = cp
	for j := 0; j < nRegionals; j++ {
		regionalWindows[j] = bloom.NewWindow(bloom.RelayHistory)
		if _, _, err := regionalWindows[j].Pull(origin.L.FilterSync); err != nil {
			return arm, err
		}
		regionalLinks[j], err = newWANLink(sched, 50*time.Millisecond, 0.002, armSeed+int64(j))
		if err != nil {
			return arm, err
		}
		if flat {
			continue // the flat proxy resolves at the origin, no replica
		}
		replicas[j], err = topology.NewReplica(1, origin.ReplicationKey(), reg)
		if err != nil {
			return arm, err
		}
		defer replicas[j].L.Close()
		if err := replicas[j].CatchUp(origin, cp); err != nil {
			return arm, err
		}
	}

	// The StateHash gate: no replica read is admitted (or timed) until
	// every replica's own state hash equals the origin checkpoint's.
	if !flat {
		gate := &topologyGate{Replicas: nRegionals, AllReady: true, StateHashMatch: true}
		originState, err := origin.L.StateHash()
		if err != nil {
			return arm, err
		}
		for j := 0; j < nRegionals; j++ {
			if !replicas[j].Ready() {
				gate.AllReady = false
			}
			rs, err := replicas[j].L.StateHash()
			if err != nil {
				return arm, err
			}
			if rs != originState {
				gate.StateHashMatch = false
			}
		}
		arm.ReplicaGate = gate
		if !gate.AllReady || !gate.StateHashMatch {
			return arm, fmt.Errorf("replica gate failed before timing: %+v", gate)
		}
	}

	edges := make([]*edgeSim, nEdges)
	edgeLinks := make([]*wanLink, nEdges)
	for k := 0; k < nEdges; k++ {
		median, loss := 20*time.Millisecond, 0.01
		if flat {
			// The flat proxy talks straight to the origin over the wide
			// hop; losses match the tiered resolution path so the two
			// arms compare at equal availability.
			median = 50 * time.Millisecond
		}
		edgeLinks[k], err = newWANLink(sched, median, loss, armSeed+0x10000+int64(k))
		if err != nil {
			return arm, err
		}
		erng := rand.New(rand.NewSource(armSeed + 0x20000 + int64(k)))
		edges[k] = &edgeSim{
			window:   bloom.NewWindow(bloom.RelayHistory),
			rng:      erng,
			zipf:     rand.NewZipf(erng, cfg.Zipf, 1, uint64(cfg.IDs-1)),
			link:     edgeLinks[k],
			seenRevs: make(map[int]bool),
		}
		src := regionalWindows[k/nEdgesPer].Sync
		if flat {
			src = origin.L.FilterSync
		}
		if _, _, err := edges[k].window.Pull(src); err != nil {
			return arm, err
		}
	}

	// Revocation events at the origin.
	for i := range revs {
		ev := revs[i]
		sched.At(ev.at, func() {
			rec := recs[ev.idx]
			rec.State = ledger.StateRevoked
			rec.OpSeq++
			if err := origin.Restore([]ledger.Record{rec}); err != nil {
				panic(fmt.Sprintf("topology: mid-run revoke: %v", err))
			}
			dirty = true
		})
	}

	// Origin epoch builder + checkpoint cutter.
	var buildLoop func()
	buildLoop = func() {
		if dirty {
			if _, err := l.BuildSnapshot(); err != nil {
				panic(fmt.Sprintf("topology: snapshot build: %v", err))
			}
			dirty = false
		}
		cp, err := origin.Checkpoint()
		if err != nil {
			panic(fmt.Sprintf("topology: checkpoint: %v", err))
		}
		lastCP = cp
		sched.After(interval, buildLoop)
	}
	sched.After(interval, buildLoop)

	// Regional sync loops (tiered only): filter pull + replica catch-up
	// over the origin WAN hop, each round two origin requests.
	if !flat {
		for j := 0; j < nRegionals; j++ {
			j := j
			var syncLoop func()
			syncLoop = func() {
				regionalLinks[j].request(func(err error, _ time.Duration) {
					if err == nil {
						originReqs += 2
						if _, n, perr := regionalWindows[j].Pull(origin.L.FilterSync); perr == nil {
							syncBytes += uint64(n)
						}
						if cerr := replicas[j].CatchUp(origin, lastCP); cerr != nil {
							panic(fmt.Sprintf("topology: catch-up: %v", cerr))
						}
					}
					sched.After(interval, syncLoop)
				})
			}
			// Stagger regionals across the interval.
			sched.After(interval*time.Duration(j+1)/time.Duration(nRegionals+1), syncLoop)
		}
	}

	// Edge sync loops: pull from the regional tier (or the origin when
	// flat) over the edge WAN hop, then harvest staleness samples.
	for k := 0; k < nEdges; k++ {
		k := k
		src := regionalWindows[k/nEdgesPer].Sync
		if flat {
			src = origin.L.FilterSync
		}
		var syncLoop func()
		syncLoop = func() {
			edges[k].link.request(func(err error, _ time.Duration) {
				if err == nil {
					if flat {
						originReqs++
					}
					if _, n, perr := edges[k].window.Pull(src); perr == nil {
						syncBytes += uint64(n)
					}
					edges[k].installCheck(sched.Now(), revs, &staleness)
				}
				sched.After(interval, syncLoop)
			})
		}
		sched.After(interval*time.Duration(k+1)/time.Duration(nEdges+1), syncLoop)
	}

	// Edge serving loops: every tick, validate a bounded sample of the
	// edge's page arrivals and weight the outcomes back up.
	for k := 0; k < nEdges; k++ {
		e := edges[k]
		replica := replicas[k/nEdgesPer] // nil when flat
		sample := cfg.SamplePages
		weight := pagesPerEdgeTick / float64(sample)
		var tickLoop func()
		tickLoop = func() {
			if sched.Now() >= window {
				return
			}
			for p := 0; p < sample; p++ {
				totalW += weight
				_, f, ok := e.window.Latest()
				if !ok {
					continue // no filter yet: page unservable, counted against availability
				}
				var positive []ids.PhotoID
				for i := 0; i < cfg.PageSize; i++ {
					idx := int(e.zipf.Uint64())
					if f.Test(ledger.FilterKey(recs[idx].ID)) {
						positive = append(positive, recs[idx].ID)
					}
				}
				if len(positive) == 0 {
					servedW += weight
					continue
				}
				batch := positive
				w := weight
				e.link.request(func(err error, rtt time.Duration) {
					if err != nil {
						return // resolution lost: page degraded
					}
					resolveRTTs = append(resolveRTTs, rtt)
					if flat {
						originReqs += w
						if qerr := wireResolve(codec, origin.L.StatusBatch, batch, &resolveWireBytes, &gateProofs); qerr == nil {
							servedW += w
						}
						return
					}
					if !replica.Ready() {
						return // gate: un-verified replicas serve nothing
					}
					replicaReqs += w
					if qerr := wireResolve(codec, replica.L.StatusBatch, batch, &resolveWireBytes, &gateProofs); qerr == nil {
						servedW += w
					}
				})
			}
			sched.After(tick, tickLoop)
		}
		sched.After(tick*time.Duration(k+1)/time.Duration(nEdges+1), tickLoop)
	}

	sched.RunUntil(window)

	arm.OriginRequests = originReqs
	arm.OriginQPS = originReqs / window.Seconds()
	arm.ReplicaQPS = replicaReqs / window.Seconds()
	if totalW > 0 {
		arm.Availability = servedW / totalW
	}
	arm.SyncBytes = syncBytes
	arm.ResolveWireBytes = resolveWireBytes
	arm.WireGateProofs = gateProofs
	arm.PagesModelled = totalW
	arm.PagesSampled = nEdges * cfg.SamplePages * cfg.WindowSec
	if len(staleness) > 0 {
		sort.Float64s(staleness)
		var sum float64
		for _, s := range staleness {
			sum += s
		}
		arm.StalenessMeanSec = sum / float64(len(staleness))
		arm.StalenessP95Sec = staleness[int(0.95*float64(len(staleness)-1))]
	}
	arm.StalenessSamples = len(staleness)
	if len(resolveRTTs) > 0 {
		arm.ResolveP95Ms = float64(netsim.Quantile(resolveRTTs, 0.95)) / float64(time.Millisecond)
	}
	arm.Metrics = reg.Snapshot()
	return arm, nil
}

// runTopology drives the sweep and writes the report.
func runTopology(cfg topologyConfig) error {
	if cfg.Regionals < 1 || cfg.Edges < 1 || cfg.SamplePages < 1 || cfg.PageSize < 1 {
		return fmt.Errorf("topology: regionals, edges, sample and page size must be >= 1")
	}
	if cfg.Zipf <= 1 {
		return fmt.Errorf("topology: -topology-zipf must be > 1")
	}
	report := topologyReport{
		Seed:         cfg.Seed,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Browsers:     cfg.Browsers,
		IDs:          cfg.IDs,
		Revoked:      cfg.Revoked,
		Regionals:    cfg.Regionals,
		EdgesPer:     cfg.Edges,
		PageSize:     cfg.PageSize,
		PagesPerHour: cfg.PagesPerHour,
		Zipf:         cfg.Zipf,
		WindowSec:    cfg.WindowSec,
		Revokes:      cfg.Revokes,
	}

	codecs := cfg.Wire
	if len(codecs) == 0 {
		codecs = []wire.Codec{wire.CodecJSON}
	}

	// runSet runs one shape under every requested codec and gates the
	// codec twins against each other: same seed, same traffic, so any
	// decision-level divergence means a codec changed behavior. Returns
	// the index of the first codec's arm in report.Arms.
	runSet := func(intervalSec int, flat bool) (int, error) {
		first := -1
		for _, codec := range codecs {
			arm, err := runTopologyArm(cfg, intervalSec, flat, codec)
			if err != nil {
				return -1, err
			}
			fmt.Printf("topology: %-24s origin %8.2f qps  replica %8.2f qps  avail %.4f  staleness p95 %6.1fs  resolve %8d B\n",
				arm.Arm, arm.OriginQPS, arm.ReplicaQPS, arm.Availability, arm.StalenessP95Sec, arm.ResolveWireBytes)
			report.Arms = append(report.Arms, arm)
			if first < 0 {
				first = len(report.Arms) - 1
				continue
			}
			ref := report.Arms[first]
			if arm.Availability != ref.Availability || arm.OriginRequests != ref.OriginRequests ||
				arm.ReplicaQPS != ref.ReplicaQPS || arm.StalenessSamples != ref.StalenessSamples {
				return -1, fmt.Errorf("topology: codec twins diverge: %s vs %s", arm.Arm, ref.Arm)
			}
		}
		return first, nil
	}

	flatIdx, err := runSet(baselineIntervalSec, true)
	if err != nil {
		return err
	}

	baselineTiered := -1
	for _, iv := range cfg.Intervals {
		idx, err := runSet(iv, false)
		if err != nil {
			return err
		}
		if baselineTiered < 0 || iv == baselineIntervalSec {
			baselineTiered = idx
		}
	}
	flatArm := report.Arms[flatIdx]
	if baselineTiered >= 0 && report.Arms[baselineTiered].OriginQPS > 0 {
		report.OriginLoadReduction = flatArm.OriginQPS / report.Arms[baselineTiered].OriginQPS
		report.AvailabilityDelta = flatArm.Availability - report.Arms[baselineTiered].Availability
	}
	if baselineTiered >= 0 {
		var jsonBytes, binBytes uint64
		for _, a := range report.Arms {
			if a.IntervalSec != report.Arms[baselineTiered].IntervalSec || a.ReplicaQPS == 0 {
				continue
			}
			switch a.Wire {
			case "json":
				jsonBytes = a.ResolveWireBytes
			case "binary":
				binBytes = a.ResolveWireBytes
			}
		}
		if jsonBytes > 0 && binBytes > 0 {
			report.WireResolveBytesRatio = float64(jsonBytes) / float64(binBytes)
			fmt.Printf("topology: resolution plane: IRSW1 moves %.2fx fewer bytes than JSON at the baseline interval\n",
				report.WireResolveBytesRatio)
		}
	}
	report.Note = "virtual-time netsim run; browsers modelled in aggregate (sampled pages weighted to the " +
		"full arrival rate); origin_qps counts every request reaching the origin ledger; tiered arms gate " +
		"replica reads on StateHash equivalence with a signed origin checkpoint before timing; wire codec " +
		"twins replay identical traffic and are gated on identical decisions with byte-identical proofs"

	f, err := os.Create(cfg.Out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("topology: origin load reduction %.1fx (availability delta %+.4f) -> %s\n",
		report.OriginLoadReduction, report.AvailabilityDelta, cfg.Out)
	return nil
}
