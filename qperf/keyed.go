package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	quantile "repro"
	"repro/httpapi"
	"repro/internal/codec"
	"repro/internal/keyed"
	"repro/internal/rng"
)

// keyed-window: standalone quantiled with a 1024-key LRU cap and a 10 s
// window of ten 1 s epochs. Each ingest request is an agent-style batched
// flush of 64 QKSB frames of 256 values, keys drawn Zipf(s=1.1) over 4096
// keys; queries ask a 5 s window of one of the 32 hottest keys at 100/s.
// Many small per-key streams keep their sketches in the paper's early,
// rate-1, collapse-heavy phase, the load drives LRU create/evict and live
// epoch rotation, windowed queries pay a ring merge, and 16× more requests
// per value than flat make HTTP overhead a visible stage.
const (
	keyedKeys   = 4096
	keyedZipfS  = 1.1
	keyedFrame  = 256
	keyedPerReq = 64
	keyedBodies = 256 // distinct request bodies the ingest loop cycles through
	keyedWarm   = 2 * keyedBodies
	// keyedHot ranks are queried, and their windowed answers probed. The
	// store's LRU is striped (16 shards of 64 keys at this cap), so a key
	// of rank 32 or more can go untouched long enough for its shard to
	// evict it, after which its all-time answer covers only what arrived
	// since. The all-time probe therefore judges only the keyedProbed
	// hottest, half the lowest rank a model of the LRU ever saw evicted
	// (TestHotKeysSurviveLRU).
	keyedHot       = 32
	keyedProbed    = 16
	keyedMaxKeys   = 1024
	keyedWindow    = 10 * time.Second
	keyedEpochs    = 10
	keyedQueryWin  = 5 * time.Second
	keyedReqValues = keyedFrame * keyedPerReq
)

var keyedPhis = []float64{0.5, 0.99}

func keyName(rank int) string { return fmt.Sprintf("tenant-%04d", rank) }

// zipfTable is the CDF of P(rank k) ∝ (k+1)^−s over n ranks.
func zipfTable(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// keyedFrameRef is one frame of a pre-encoded request: its key's rank and
// its values.
type keyedFrameRef struct {
	rank int
	vals []float64
}

// keyedFrames draws the request bodies' frames: keyedBodies requests of
// keyedPerReq frames, each a Zipf-drawn key and keyedFrame values.
func keyedFrames(seed uint64) [][]keyedFrameRef {
	r := rng.New(seed)
	cdf := zipfTable(keyedKeys, keyedZipfS)
	frames := make([][]keyedFrameRef, keyedBodies)
	for b := range frames {
		for f := 0; f < keyedPerReq; f++ {
			rank := sort.SearchFloat64s(cdf, r.Float64())
			// A per-key scale gives every tenant its own distribution, so a
			// probe that mixed keys up would miss.
			frames[b] = append(frames[b], keyedFrameRef{rank, lognormal(r, keyedFrame, float64(1+rank%13))})
		}
	}
	return frames
}

func newKeyedWindow(seed uint64) *workload {
	frames := keyedFrames(seed)
	bodies := make([][]byte, keyedBodies)
	for b, fs := range frames {
		for _, f := range fs {
			bodies[b] = codec.AppendKeyedIngestFrame(bodies[b], []byte(keyName(f.rank)), f.vals)
		}
	}
	// Each hot key's value range bounds its windowed answers.
	lo, hi := make([]float64, keyedHot), make([]float64, keyedHot)
	for k := range lo {
		lo[k], hi[k] = math.Inf(1), math.Inf(-1)
	}
	for _, fs := range frames {
		for _, f := range fs {
			if f.rank < keyedHot {
				flo, fhi := bounds(f.vals)
				lo[f.rank], hi[f.rank] = min(lo[f.rank], flo), max(hi[f.rank], fhi)
			}
		}
	}
	qr := rng.New(seed ^ 0x5eed0f9e7)
	const maxQueries = 60 * 100 // the query rate for the longest allowed run
	queries := make([]query, maxQueries)
	for i := range queries {
		k := qr.Intn(keyedHot)
		queries[i] = query{
			path: quantilePath(keyName(k), keyedQueryWin, keyedPhis),
			key:  keyName(k), window: keyedQueryWin,
			phis: keyedPhis, lo: lo[k], hi: hi[k],
		}
	}
	return &workload{
		name: "keyed-window",
		args: []string{
			"-keys-max", fmt.Sprint(keyedMaxKeys),
			"-window", keyedWindow.String(),
			"-window-epochs", fmt.Sprint(keyedEpochs),
		},
		warmReqs:   keyedWarm,
		ingestPath: "/v1/ingest/keyed",
		ingestCT:   codec.KeyedIngestContentType,
		body:       func(_ []byte, i int) []byte { return bodies[i%keyedBodies] },
		values:     func(int) uint64 { return keyedReqValues },
		ack: func(resp []byte, _ int, _ uint64) error {
			var a struct{ Added, Frames uint64 }
			if err := json.Unmarshal(resp, &a); err != nil {
				return err
			}
			if a.Added != keyedReqValues || a.Frames != keyedPerReq {
				return fmt.Errorf("ack added %d values in %d frames, want %d in %d", a.Added, a.Frames, keyedReqValues, keyedPerReq)
			}
			return nil
		},
		// The hottest keys' all-time sketches cross the unknown-N rate
		// changes during the phase (key 0 takes a sixth of the values), so
		// their per-value cost falls as the run goes on and the ingest rate
		// rises by up to a third between the halves at any warm-up a setup
		// can afford.
		trendScale: 1.5,
		queryRate:  100,
		query:      func(i int) query { return queries[i%len(queries)] },
		probe: func(p prober, reqs int) (int, int, error) {
			return probeKeyed(p, frames, sends(reqs, keyedBodies), lo, hi)
		},
		replayer: func() (replayer, error) {
			srv, err := httpapi.New(eps, delta, 0, quantile.WithSeed(serverSeed))
			if err != nil {
				return nil, err
			}
			err = srv.SetKeyed(httpapi.KeyedConfig{
				MaxKeys: keyedMaxKeys, Seed: serverSeed,
				Window: keyedWindow, WindowEpochs: keyedEpochs,
			})
			if err != nil {
				return nil, err
			}
			return &keyedReplay{store: srv.Keyed()}, nil
		},
	}
}

// probeKeyed judges the keyedProbed hottest keys' all-time probePhis
// answers against the exact ranks of everything sent under each, and every
// hot key's windowed answers for being served and inside the key's value
// range. Exact windowed judging needs a virtual clock and stays with the
// conformance grid.
func probeKeyed(p prober, frames [][]keyedFrameRef, sent []uint64, lo, hi []float64) (attempted, misses int, err error) {
	sets := make([]multiset, keyedProbed)
	for b, fs := range frames {
		for _, f := range fs {
			if f.rank < keyedProbed {
				sets[f.rank].add(f.vals, sent[b])
			}
		}
	}
	for k := range keyedHot {
		if k < keyedProbed {
			attempted++
			got, err := p.answers(query{path: quantilePath(keyName(k), 0, probePhis), phis: probePhis})
			if err != nil {
				misses++
				fmt.Fprintf(logw, "probe: key %s: %v\n", keyName(k), err)
				continue
			}
			attempted += len(probePhis)
			misses += sets[k].judge("key "+keyName(k), got, probePhis, eps)
		}
		attempted++
		wq := query{path: quantilePath(keyName(k), keyedQueryWin, keyedPhis), phis: keyedPhis, lo: lo[k], hi: hi[k]}
		body, err := p.raw(wq.path)
		if err == nil {
			err = wq.check(body)
		}
		if err != nil {
			misses++
			fmt.Fprintf(logw, "probe: key %s windowed: %v\n", keyName(k), err)
		}
	}
	return attempted, misses, nil
}

// keyedReplay replays keyed traffic through the handlers' calls on a
// store configured exactly as quantiled configures it.
type keyedReplay struct {
	store *keyed.Store[string, float64]
	dec   codec.KeyedIngestDecoder
	rd    bytes.Reader
}

func (r *keyedReplay) ingest(body []byte, t *tally) error {
	r.rd.Reset(body)
	r.dec.Reset(&r.rd)
	for {
		t0 := time.Now()
		key, vals, err := r.dec.Next()
		t1 := t.span("keyed_decode", t0)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := keyed.AddAllBytes(r.store, key, vals); err != nil {
			return err
		}
		t.span("keyed_add", t1)
		t.values("keyed", len(vals))
	}
}

func (r *keyedReplay) query(q query, t *tally) error {
	t0 := time.Now()
	_, err := r.store.WindowQuantiles(q.key, q.window, q.phis)
	t.span("window_query", t0)
	return err
}
