package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"irs/internal/aggregator"
	"irs/internal/camera"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/photo"
	"irs/internal/watermark"
	"irs/internal/wire"
)

// upload_ingest: one op is one album of albumSize images POSTed to the
// aggregator's batch endpoint.
const (
	albumSize = 16
	imageW    = 192
	imageH    = 128
)

// itemKind is what the generator made an upload to be.
type itemKind uint8

const (
	itemActive     itemKind = iota // labeled, claim active          → hosted
	itemDerivative                 // benign transform of an earlier active item, label kept → hosted
	itemUnlabeled                  // no label                        → custodial claim, hosted
	itemRevoked                    // labeled, claim revoked          → denied
	itemMismatch                   // metadata names another id       → denied
	itemMalformed                  // not an IRSP container           → per-item error
	numItemKinds
)

// corpusMix is how many items of each kind a corpus of 320 items (20
// albums) holds; other corpus sizes scale it. 60 % active, 15 %
// derivative, 15 % unlabeled, 5 % revoked, 5 % mismatched or malformed.
var corpusMix = [numItemKinds]int{192, 48, 48, 16, 8, 8}

// corpusLayout seeds the corpus layout, which does not vary with the
// run's seed.
const corpusLayout = 20220914

// decision is the comparable outcome of one uploaded item. Custodial
// claims get a fresh identifier on every pass, so their id is left out.
type decision struct {
	Accepted  bool
	Custodial bool
	Failed    bool   // per-item error (malformed container)
	Reason    string // aggregator.DenyReason string form
	ID        string // hosting id of a labeled accept
}

// decisionOf reads one item of a batch response. The text of a per-item
// error is the pipeline's own; only the fact of it is part of the
// decision.
func decisionOf(it *aggregator.BatchUploadItem) decision {
	if it.Error != "" {
		return decision{Failed: true}
	}
	d := decision{Accepted: it.Accepted, Custodial: it.Custodial, Reason: it.Reason}
	if it.Accepted && !it.Custodial {
		d.ID = it.ID
	}
	return d
}

func hashDecisions(ds []decision) [32]byte {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintf(h, "%t|%t|%t|%s|%s\n", d.Accepted, d.Custodial, d.Failed, d.Reason, d.ID)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

type uploadRig struct {
	st      *stack
	aggCfg  aggregator.Config
	dir     *wire.Directory
	seam    *handlerSeam
	client  *http.Client
	rt      *hop1Transport
	albums  [][]byte     // request bodies
	raws    [][]byte     // every item's container bytes, album-major
	want    [][]decision // the serial reference, per album
	wantSum [32]byte
	passes  int // corpus passes per block

	labeled   []ids.PhotoID // ids of the labeled items' claims
	indexSeed int           // size of the replayed standalone index

	got      []decision // the running pass
	counts   map[string]uint64
	uploaded uint64
}

// newAggregator makes the fresh aggregator every pass starts with, so
// that every pass makes the same decisions.
func (r *uploadRig) newAggregator() (*aggregator.Aggregator, error) {
	return aggregator.New(r.aggCfg, r.dir)
}

func buildUpload(sc scale, seed int64, tmp string, tr *tracer) (rig, error) {
	// A small memtable and an early compaction threshold, so that the
	// custodial claims of one run exercise flush and compaction too.
	st, err := newStack(tmp, ledgerTuning{memtableRecords: 256, compactAfter: 4}, tr)
	if err != nil {
		return nil, err
	}
	r := &uploadRig{st: st, passes: sc.uploadPasses, indexSeed: sc.indexSeed, counts: make(map[string]uint64)}
	r.dir = wire.NewDirectory()
	r.dir.Register(originID, st.svc)
	r.aggCfg = aggregator.Config{
		Name:               "bench",
		Unlabeled:          aggregator.CustodialClaim,
		CustodialLedger:    st.svc,
		CustodialLedgerURL: st.originSrv.url(),
		// A fixed band key, so bucket layouts and therefore lookup cost
		// repeat from run to run.
		Index: aggregator.IndexConfig{BandKey: 0x1e55_b00c},
	}
	if err := r.generate(sc.uploadAlbums, seed); err != nil {
		r.close()
		return nil, err
	}
	if err := r.reference(); err != nil {
		r.close()
		return nil, err
	}
	agg, err := r.newAggregator()
	if err != nil {
		r.close()
		return nil, err
	}
	r.seam = newHandlerSeam(kAggHandler, aggregator.NewServer(agg), tr)
	if st.front, err = serve(r.seam); err != nil {
		r.close()
		return nil, err
	}
	r.rt = &hop1Transport{inner: &http.Transport{MaxIdleConnsPerHost: 1}, clientKey: "uploader-0", tr: tr}
	r.client = &http.Client{Transport: r.rt}
	return r, nil
}

// generate builds the corpus: the claims behind the labeled items go
// into the ledger, and every album becomes one request body.
func (r *uploadRig) generate(albums int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	// The layout — which slot holds which kind of item, which earlier
	// item a derivative derives from and by which transform — is the
	// same for every seed, so that the slowest albums (the ones with the
	// most unlabeled items, each a full watermark search) are equally
	// slow whatever the seed; the seed decides pixels and identifiers.
	layout := rand.New(rand.NewSource(corpusLayout))
	n := albums * albumSize
	// Slot 0 of every album is an active labeled photo, so a derivative
	// always has an earlier item of its own album to derive from; the
	// other slots get the rest of the mix in shuffled order.
	var kinds []itemKind
	for k, share := range corpusMix {
		c := share * n / 320
		if itemKind(k) == itemActive {
			c -= albums
		}
		for ; c > 0; c-- {
			kinds = append(kinds, itemKind(k))
		}
	}
	for len(kinds) < n-albums {
		kinds = append(kinds, itemActive)
	}
	layout.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })

	gen := &recordGen{rng: rng, pub: make([]byte, 32), t0: time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)}
	rng.Read(gen.pub)
	wm := watermark.DefaultConfig()
	url := r.st.originSrv.url()
	var records []ledger.Record
	labeled := func(state ledger.State) (*photo.Image, error) {
		rec := gen.record(state)
		records = append(records, rec)
		r.labeled = append(r.labeled, rec.ID)
		return camera.Label(photo.Synth(rng.Int63(), imageW, imageH), rec.ID, url, wm)
	}
	transforms := []func(*photo.Image) *photo.Image{
		func(im *photo.Image) *photo.Image { return photo.CompressJPEGLike(im, 90) },
		func(im *photo.Image) *photo.Image { return photo.Tint(im, 1.0, 12) },
		func(im *photo.Image) *photo.Image { return photo.AddNoise(im, 2, 42) },
	}
	next := 0
	for a := 0; a < albums; a++ {
		var body bytes.Buffer
		var actives []*photo.Image
		for s := 0; s < albumSize; s++ {
			kind := itemActive
			if s > 0 {
				kind = kinds[next]
				next++
			}
			var im *photo.Image
			var err error
			switch kind {
			case itemActive:
				if im, err = labeled(ledger.StateActive); err == nil {
					actives = append(actives, im)
				}
			case itemDerivative:
				src := actives[layout.Intn(len(actives))]
				im = transforms[layout.Intn(len(transforms))](src)
			case itemUnlabeled:
				im = photo.Synth(rng.Int63(), imageW, imageH)
			case itemRevoked:
				im, err = labeled(ledger.StateRevoked)
			case itemMismatch:
				if im, err = labeled(ledger.StateActive); err == nil {
					other := gen.record(ledger.StateActive).ID // never stored
					im.Meta.Set(photo.KeyIRSID, other.String())
				}
			}
			if err != nil {
				return fmt.Errorf("corpus item %d/%d: %w", a, s, err)
			}
			raw := []byte("corrupt frame")
			if kind != itemMalformed {
				var buf bytes.Buffer
				if err := photo.EncodeIRSP(&buf, im); err != nil {
					return err
				}
				raw = buf.Bytes()
			}
			r.raws = append(r.raws, raw)
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], uint32(len(raw)))
			body.Write(hdr[:])
			body.Write(raw)
		}
		r.albums = append(r.albums, body.Bytes())
	}
	if err := r.st.origin.RestoreRecords(records); err != nil {
		return err
	}
	return r.st.origin.Flush()
}

// reference runs the corpus once through the serial Aggregator.Upload
// path; its decisions are what every pipelined pass must reproduce.
func (r *uploadRig) reference() error {
	agg, err := r.newAggregator()
	if err != nil {
		return err
	}
	var all []decision
	for a := range r.albums {
		ds := make([]decision, albumSize)
		for s := range ds {
			im, err := photo.DecodeIRSP(bytes.NewReader(r.raws[a*albumSize+s]))
			if err != nil {
				ds[s] = decision{Failed: true}
				continue
			}
			res, err := agg.Upload(im)
			if err != nil {
				return fmt.Errorf("serial reference, item %d/%d: %w", a, s, err)
			}
			ds[s] = decision{Accepted: res.Accepted, Custodial: res.Custodial, Reason: res.Reason.String()}
			if res.Accepted && !res.Custodial {
				ds[s].ID = res.ID.String()
			}
		}
		r.want = append(r.want, ds)
		all = append(all, ds...)
	}
	r.wantSum = hashDecisions(all)
	return nil
}

func (r *uploadRig) stack() *stack { return r.st }
func (r *uploadRig) clients() int  { return 1 }
func (r *uploadRig) blockOps() int { return r.passes * len(r.albums) }

func (r *uploadRig) do(_, i int, op int64) (time.Duration, bool) {
	album := i % len(r.albums)
	if album == 0 {
		agg, err := r.newAggregator()
		if err != nil {
			return 0, false
		}
		var h http.Handler = aggregator.NewServer(agg)
		r.seam.inner.Store(&h)
		r.got = r.got[:0]
	}
	r.rt.op = op
	root := r.st.tr.begin()
	t0 := time.Now()
	hop := r.st.tr.begin()
	resp, err := r.post(r.albums[album])
	r.st.tr.end(kHop1, rpcOther, op, 0, hop)
	lat := time.Since(t0)
	r.st.tr.end(kOp, rpcOther, op, 0, root)
	if err != nil || len(resp.Results) != albumSize {
		return lat, false
	}
	ok := true
	for s := range resp.Results {
		d := decisionOf(&resp.Results[s])
		ok = ok && d == r.want[album][s]
		r.got = append(r.got, d)
		r.uploaded++
		switch {
		case d.Failed:
			r.counts["malformed"]++
		case d.Accepted:
			r.counts["accepted"]++
		default:
			r.counts[d.Reason]++
		}
	}
	if album == len(r.albums)-1 && hashDecisions(r.got) != r.wantSum {
		ok = false
	}
	return lat, ok
}

func (r *uploadRig) post(body []byte) (*aggregator.BatchUploadResponse, error) {
	req, err := http.NewRequest(http.MethodPost, r.st.front.url()+"/v1/upload/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, hr.Body) // drained for connection reuse
		return nil, fmt.Errorf("upload batch: %s", hr.Status)
	}
	var out aggregator.BatchUploadResponse
	if err := json.NewDecoder(hr.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (r *uploadRig) someIDs() []ids.PhotoID     { return r.labeled[:min(len(r.labeled), pageSize)] }
func (r *uploadRig) betweenBlocks() int         { return 0 }
func (r *uploadRig) keyInOp(int64, uint64) bool { return true } // one op in flight at a time

// mix reports the exact share of each decision over everything
// uploaded.
func (r *uploadRig) mix() map[string]float64 {
	out := make(map[string]float64, len(r.counts))
	for k, n := range r.counts {
		out[k] = float64(n) / float64(r.uploaded)
	}
	return out
}

func (r *uploadRig) close() {
	if r.rt != nil {
		r.rt.inner.(*http.Transport).CloseIdleConnections()
	}
	r.st.close()
}
