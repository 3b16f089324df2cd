// Package browser models an IRS-enabled browser loading photo-bearing
// pages — the paper's bootstrap-phase client (§4.1: "we need a temporary
// and partial solution ... the right place to make this intervention is
// within browser software").
//
// The model reproduces the two latency arguments of §4.3:
//
//  1. Ledger checks are cheap relative to page loads: against an HTTP
//     Archive Web Almanac-like population (almanac.go) where "good"
//     pages render under 1.8 s and over 60% of sites take over 2.5 s, a
//     sub-100 ms check is a small relative overhead (experiment E3).
//  2. Checks can be pipelined: "one can generally check a photo as soon
//     as its metadata has been downloaded", hiding the check behind the
//     remaining body transfer. On a pinterest-like page the paper
//     reports zero added render delay while checks complete within
//     250 ms; PinterestSpec is calibrated to that crossover (E4).
//
// The load model is deterministic queueing arithmetic over pre-sampled
// latencies (a PagePlan): images contend for a fixed per-host connection
// pool; each image's revocation check starts at its metadata arrival
// (ModePipelined), at body completion (ModeBlocking — the naive
// comparison arm), or never (ModeOff). Pre-sampling means all three
// modes see identical network draws, so differences are purely the
// extension's scheduling policy.
package browser

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"irs/internal/netsim"
)

// Mode is the extension's check-scheduling policy.
type Mode int

const (
	// ModeOff renders without any revocation checks (the pre-IRS
	// baseline).
	ModeOff Mode = iota
	// ModePipelined issues each image's check as soon as the image
	// metadata (and therefore its IRS label) has arrived, overlapping
	// the check with the remaining body transfer.
	ModePipelined
	// ModeBlocking issues each check only after the full image body has
	// arrived — the naive design §4.3 worries about.
	ModeBlocking
	// ModeBatched collects labeled images as their metadata arrives and
	// validates them in batch round trips: one RPC is in flight at a
	// time, each carrying every check that became ready while the
	// previous one was out. This is the client half of the StatusBatch
	// wire call — a page costs a handful of round trips instead of one
	// per image.
	ModeBatched
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModePipelined:
		return "pipelined"
	case ModeBlocking:
		return "blocking"
	case ModeBatched:
		return "batched"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ImagePlan is one image's pre-sampled network behaviour.
type ImagePlan struct {
	// FetchDur is the transfer time once a connection is assigned.
	FetchDur time.Duration
	// MetaOffset is when, within the transfer, the metadata (headers +
	// EXIF/label segment, which leads the file) is available. Always ≤
	// FetchDur.
	MetaOffset time.Duration
	// Labeled reports whether the image carries an IRS label and
	// therefore needs a check at all.
	Labeled bool
}

// PagePlan is a fully pre-sampled page load: evaluating it under any
// Mode is deterministic.
type PagePlan struct {
	// HTMLLatency is the time to fetch and parse the document; images
	// are discovered at this point.
	HTMLLatency time.Duration
	Images      []ImagePlan
	// CheckLatency holds one pre-sampled proxy round trip per image.
	CheckLatency []time.Duration
}

// PageSpec generates PagePlans.
type PageSpec struct {
	// NImagesMin and NImagesMax bound the number of images per page.
	NImagesMin, NImagesMax int
	// HTML is the document fetch latency distribution.
	HTML netsim.Dist
	// ImageFetch is the per-image transfer time distribution.
	ImageFetch netsim.Dist
	// MetaDelay is the metadata arrival offset distribution (clamped to
	// the image's transfer time).
	MetaDelay netsim.Dist
	// Check is the revocation check round trip distribution.
	Check netsim.Dist
	// LabeledFraction is the fraction of images carrying IRS labels;
	// unlabeled images never trigger checks.
	LabeledFraction float64
}

// Sample draws a PagePlan.
func (s PageSpec) Sample(rng *rand.Rand) PagePlan {
	n := s.NImagesMin
	if s.NImagesMax > s.NImagesMin {
		n += rng.Intn(s.NImagesMax - s.NImagesMin + 1)
	}
	p := PagePlan{
		HTMLLatency:  s.HTML.Sample(rng),
		Images:       make([]ImagePlan, n),
		CheckLatency: make([]time.Duration, n),
	}
	for i := 0; i < n; i++ {
		fetch := s.ImageFetch.Sample(rng)
		meta := s.MetaDelay.Sample(rng)
		if meta > fetch {
			meta = fetch
		}
		p.Images[i] = ImagePlan{
			FetchDur:   fetch,
			MetaOffset: meta,
			Labeled:    rng.Float64() < s.LabeledFraction,
		}
		p.CheckLatency[i] = s.Check.Sample(rng)
	}
	return p
}

// LoadResult reports one evaluated page load.
type LoadResult struct {
	// FCP is the first contentful paint: document fetched and parsed.
	// Checks never delay it in any mode (the extension gates images, not
	// text).
	FCP time.Duration
	// FullRender is when the last image became displayable.
	FullRender time.Duration
	// ChecksIssued counts revocation checks.
	ChecksIssued int
	// CheckStalled counts images whose display waited on a check (the
	// check finished after the body).
	CheckStalled int
	// BatchRPCs counts validation round trips under ModeBatched (zero in
	// the per-image modes, where ChecksIssued is the round-trip count).
	BatchRPCs int
}

// connHeap tracks connection free times.
type connHeap []time.Duration

func (h connHeap) Len() int           { return len(h) }
func (h connHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h connHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *connHeap) Push(x any)        { *h = append(*h, x.(time.Duration)) }
func (h *connHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// Load evaluates a plan under a mode with the given per-host connection
// pool size (browsers conventionally use 6).
func Load(p PagePlan, mode Mode, connections int) LoadResult {
	if connections <= 0 {
		connections = 6
	}
	res := LoadResult{FCP: p.HTMLLatency, FullRender: p.HTMLLatency}
	conns := make(connHeap, connections)
	for i := range conns {
		conns[i] = p.HTMLLatency // images discovered when HTML parsed
	}
	heap.Init(&conns)
	// pending collects labeled images for ModeBatched: metadata arrival
	// (when the check becomes ready) and body completion.
	type pendingCheck struct {
		idx      int
		meta     time.Duration
		bodyDone time.Duration
	}
	var pending []pendingCheck
	for i, img := range p.Images {
		start := conns[0]
		bodyDone := start + img.FetchDur
		heap.Pop(&conns)
		heap.Push(&conns, bodyDone)

		if mode == ModeBatched && img.Labeled {
			// Display resolution is deferred to the round simulation
			// below; bodyDone still rides along for the stall test.
			res.ChecksIssued++
			pending = append(pending, pendingCheck{idx: i, meta: start + img.MetaOffset, bodyDone: bodyDone})
			continue
		}
		displayable := bodyDone
		if mode != ModeOff && img.Labeled {
			res.ChecksIssued++
			var checkDone time.Duration
			switch mode {
			case ModePipelined:
				checkDone = start + img.MetaOffset + p.CheckLatency[i]
			case ModeBlocking:
				checkDone = bodyDone + p.CheckLatency[i]
			}
			if checkDone > displayable {
				displayable = checkDone
				res.CheckStalled++
			}
		}
		if displayable > res.FullRender {
			res.FullRender = displayable
		}
	}
	if len(pending) > 0 {
		// One batch RPC in flight at a time: each round departs as soon
		// as the previous answer lands (or the first metadata arrives)
		// and carries every check that became ready meanwhile. The round
		// trip takes as long as its slowest member's pre-sampled check —
		// same draws as the per-image modes, so mode comparisons isolate
		// scheduling policy. Pages stay far under the wire batch limit
		// (≤60 images vs 256), so rounds never split.
		sort.Slice(pending, func(a, b int) bool {
			if pending[a].meta != pending[b].meta {
				return pending[a].meta < pending[b].meta
			}
			return pending[a].idx < pending[b].idx
		})
		now := pending[0].meta
		for j := 0; j < len(pending); {
			if pending[j].meta > now {
				now = pending[j].meta
			}
			k := j
			var lat time.Duration
			for k < len(pending) && pending[k].meta <= now {
				if p.CheckLatency[pending[k].idx] > lat {
					lat = p.CheckLatency[pending[k].idx]
				}
				k++
			}
			res.BatchRPCs++
			done := now + lat
			for ; j < k; j++ {
				displayable := pending[j].bodyDone
				if done > displayable {
					displayable = done
					res.CheckStalled++
				}
				if displayable > res.FullRender {
					res.FullRender = displayable
				}
			}
			now = done
		}
	}
	return res
}

// PinterestSpec is the photo-heavy page model of §4.3's overlap claim:
// dozens of images whose bodies take 300 ms–1.2 s to transfer with
// metadata in the first 50 ms. The slowest-to-slack image has
// 300 − 50 = 250 ms of body transfer remaining at metadata time, so
// checks within 250 ms add zero render delay — the crossover the paper
// reports.
func PinterestSpec(check netsim.Dist) PageSpec {
	return PageSpec{
		NImagesMin:      40,
		NImagesMax:      60,
		HTML:            netsim.Fixed(400 * time.Millisecond),
		ImageFetch:      netsim.Uniform{Min: 300 * time.Millisecond, Max: 1200 * time.Millisecond},
		MetaDelay:       netsim.Fixed(50 * time.Millisecond),
		Check:           check,
		LabeledFraction: 1.0,
	}
}
