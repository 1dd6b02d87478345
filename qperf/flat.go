package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	quantile "repro"
	"repro/httpapi"
	"repro/internal/codec"
	"repro/internal/rng"
)

// flat: standalone quantiled, one 64 Ki-value QSLB frame per
// POST /v1/ingest after a 2^26-value pre-fill, and
// GET /quantile?phi=0.5,0.9,0.99 at 100/s. Large frames make per-request
// HTTP cost negligible, so this measures slab decode, the late-stream
// fill/sample/collapse path and the view rebuild every query pays because
// ingest keeps bumping the sketch version.
const (
	flatFrame  = 1 << 16
	flatFrames = 16 // distinct frames the ingest loop cycles through
	flatWarm   = (1 << 26) / flatFrame
)

var flatPhis = []float64{0.5, 0.9, 0.99}

func newFlat(seed uint64) *workload {
	r := rng.New(seed)
	frames := make([][]float64, flatFrames)
	bodies := make([][]byte, flatFrames)
	lo, hi := 0.0, 0.0
	for i := range frames {
		frames[i] = lognormal(r, flatFrame, 1000)
		bodies[i] = codec.AppendIngestFrame(nil, frames[i])
		flo, fhi := bounds(frames[i])
		if i == 0 {
			lo, hi = flo, fhi
		}
		lo, hi = min(lo, flo), max(hi, fhi)
	}
	q := query{path: quantilePath("", 0, flatPhis), phis: flatPhis, lo: lo, hi: hi}
	return &workload{
		name:       "flat",
		warmReqs:   flatWarm,
		ingestPath: "/v1/ingest",
		ingestCT:   codec.IngestContentType,
		body:       func(_ []byte, i int) []byte { return bodies[i%flatFrames] },
		values:     func(int) uint64 { return flatFrame },
		ack: func(resp []byte, _ int, before uint64) error {
			var a struct{ Added, Total uint64 }
			if err := json.Unmarshal(resp, &a); err != nil {
				return err
			}
			if a.Added != flatFrame || a.Total != before+flatFrame {
				return fmt.Errorf("ack added %d total %d, want %d and %d", a.Added, a.Total, flatFrame, before+flatFrame)
			}
			return nil
		},
		trendScale: 1,
		queryRate:  100,
		query:      func(int) query { return q },
		probe: func(p prober, reqs int) (int, int, error) {
			var m multiset
			for i, n := range sends(reqs, flatFrames) {
				m.add(frames[i], n)
			}
			return probeFlatGrid(p, &m, lo, hi, eps)
		},
		replayer: func() (replayer, error) {
			srv, err := httpapi.New(eps, delta, 0, quantile.WithSeed(serverSeed))
			if err != nil {
				return nil, err
			}
			return &sketchReplay{sk: srv.Sketch()}, nil
		},
	}
}

// probeFlatGrid checks the server's count against m and its probePhis
// answers against m's exact ranks. It serves both whole-stream workloads
// (flat and ship-tree).
func probeFlatGrid(p prober, m *multiset, lo, hi, eps float64) (attempted, misses int, err error) {
	var st struct{ Count uint64 }
	if err := p.get("/stats", &st); err != nil {
		return 1, 1, err
	}
	attempted++
	if st.Count != m.n() {
		misses++
		fmt.Fprintf(logw, "probe: server count %d, sent %d\n", st.Count, m.n())
	}
	q := query{path: quantilePath("", 0, probePhis), phis: probePhis, lo: lo, hi: hi}
	got, err := p.answers(q)
	if err != nil {
		return attempted + 1, misses + 1, err
	}
	return attempted + len(probePhis), misses + m.judge("whole stream", got, probePhis, eps), nil
}

// sketchReplay replays flat traffic through the handlers' calls on a
// Concurrent built exactly as quantiled builds it: slab decode, AddAll,
// Quantiles.
type sketchReplay struct {
	sk    *quantile.Concurrent[float64]
	dec   codec.IngestDecoder
	rd    bytes.Reader
	dirty bool // an AddAll ran since the last query
}

func (r *sketchReplay) ingest(body []byte, t *tally) error {
	r.rd.Reset(body)
	r.dec.Reset(&r.rd)
	for {
		t0 := time.Now()
		vals, err := r.dec.Next()
		t1 := t.span("slab_decode", t0)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		// The decoder's buffer is reused by the next Next; AddAll consumes
		// it before then, as the handler does.
		r.sk.AddAll(vals)
		t.span("sketch_add", t1)
		t.values("slab", len(vals))
		r.dirty = true
	}
}

func (r *sketchReplay) query(q query, t *tally) error {
	t0 := time.Now()
	_, err := r.sk.Quantiles(q.phis)
	d := time.Since(t0)
	t.add("query", d)
	if r.dirty {
		t.add("view_rebuild", d)
	}
	r.dirty = false
	return err
}
