package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/exact"
	"repro/internal/rng"
)

// The guarantee quantiled runs with unless a workload says otherwise (the
// server defaults), and the seed it is started with.
const (
	eps        = 0.01
	delta      = 1e-4
	serverSeed = 1
)

// probePhis is the φ grid the end-of-run correctness probes ask for.
var probePhis = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}

// workload is one traffic mix: how quantiled is started, the pre-encoded
// ingest bodies the closed loop cycles through, the open-loop query
// schedule, the end-of-run correctness probe and the in-process replay.
// Every input is generated from the seed before timing starts.
type workload struct {
	name string
	args []string // quantiled flags besides -addr

	// warmReqs ingest requests pin the stream position before the
	// measured phase; the measured phase continues the same request
	// sequence.
	warmReqs   int
	ingestPath string
	ingestCT   string
	// body returns ingest request i's body, appending to dst when it has
	// to encode (ship-tree restamps each envelope) and returning a
	// pre-encoded body otherwise.
	body func(dst []byte, i int) []byte
	// values is the number of stream values request i carries.
	values func(i int) uint64
	// ack checks ingest request i's response given the values
	// acknowledged before it.
	ack func(resp []byte, i int, before uint64) error
	// trendScale widens the trend guard for a workload whose ingest rate
	// moves for a known reason (1 for the others).
	trendScale float64

	queryRate float64
	// query returns the i-th scheduled query of the measured phase.
	query func(i int) query

	// probe judges the server's answers after reqs ingest requests were
	// acknowledged. It returns the probe requests made and the misses.
	probe func(p prober, reqs int) (attempted, misses int, err error)

	// replayer builds the in-process target the traced run replays into.
	replayer func() (replayer, error)
}

// query is one GET request with what a correct answer must look like:
// one finite value per phi, non-decreasing in phi, within [lo, hi].
type query struct {
	path   string
	key    string
	window time.Duration
	phis   []float64
	lo, hi float64
}

func (q query) check(body []byte) error {
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("answer is not JSON: %v", err)
	}
	prev := math.Inf(-1)
	for _, phi := range q.phis {
		v, ok := got[strconv.FormatFloat(phi, 'g', -1, 64)].(float64)
		switch {
		case !ok:
			return fmt.Errorf("answer lacks phi=%g", phi)
		case v < q.lo || v > q.hi:
			return fmt.Errorf("phi=%g answer %g outside the input range [%g, %g]", phi, v, q.lo, q.hi)
		case v < prev:
			return fmt.Errorf("answers decrease at phi=%g", phi)
		}
		prev = v
	}
	return nil
}

func phiParam(phis []float64) string {
	s := make([]string, len(phis))
	for i, p := range phis {
		s[i] = strconv.FormatFloat(p, 'g', -1, 64)
	}
	return strings.Join(s, ",")
}

func quantilePath(key string, window time.Duration, phis []float64) string {
	v := url.Values{}
	if key != "" {
		v.Set("key", key)
	}
	if window > 0 {
		v.Set("window", window.String())
	}
	return "/quantile?" + v.Encode() + "&phi=" + phiParam(phis)
}

// prober issues the correctness probes' GETs.
type prober struct {
	c    *http.Client
	base string
}

// raw fetches path and returns its body, failing on any status but 200.
func (p prober) raw(path string) ([]byte, error) {
	resp, err := p.c.Get(p.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// get fetches path and decodes its JSON answer into out.
func (p prober) get(path string, out any) error {
	body, err := p.raw(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// answers fetches q and returns its values in q.phis order.
func (p prober) answers(q query) ([]float64, error) {
	var got map[string]any
	if err := p.get(q.path, &got); err != nil {
		return nil, err
	}
	out := make([]float64, len(q.phis))
	for i, phi := range q.phis {
		v, ok := got[strconv.FormatFloat(phi, 'g', -1, 64)].(float64)
		if !ok {
			return nil, fmt.Errorf("GET %s: answer lacks phi=%g", q.path, phi)
		}
		out[i] = v
	}
	return out, nil
}

// multiset is a stream described as blocks of values, each block occurring
// a whole number of times. The benchmark's streams are cycles over
// pre-generated blocks, so this is exact without holding the stream. A
// block may be regenerated on demand instead of held.
type multiset struct {
	blocks []func() []float64
	sizes  []int
	counts []uint64
}

func (m *multiset) add(block []float64, count uint64) {
	m.addGen(len(block), func() []float64 { return block }, count)
}

func (m *multiset) addGen(size int, gen func() []float64, count uint64) {
	if count > 0 {
		m.blocks = append(m.blocks, gen)
		m.sizes = append(m.sizes, size)
		m.counts = append(m.counts, count)
	}
}

func (m *multiset) n() uint64 {
	var n uint64
	for i, size := range m.sizes {
		n += uint64(size) * m.counts[i]
	}
	return n
}

// ranks is exact.Rank over the multiset for each of vs: the 1-based rank
// range [lo, hi] each value occupies. Each block is generated once.
func (m *multiset) ranks(vs []float64) (lo, hi []uint64) {
	lo, hi = make([]uint64, len(vs)), make([]uint64, len(vs))
	for i, gen := range m.blocks {
		b := gen()
		for j, v := range vs {
			l, h := exact.Rank(b, v)
			lo[j] += uint64(l-1) * m.counts[i]
			hi[j] += uint64(h) * m.counts[i]
		}
	}
	for j := range lo {
		lo[j]++
	}
	return lo, hi
}

// judge counts the answers that are not ε-approximate φ-quantiles of the
// multiset — whose attainable ranks miss [⌈(φ−ε)N⌉, ⌈(φ+ε)N⌉], the window
// exact.RankError judges by — and logs each miss under label.
func (m *multiset) judge(label string, answers, phis []float64, eps float64) (misses int) {
	n := m.n()
	lo, hi := m.ranks(answers)
	for j, phi := range phis {
		loWant := max(1, int64(math.Ceil((phi-eps)*float64(n))))
		hiWant := min(int64(n), int64(math.Ceil((phi+eps)*float64(n))))
		top := max(hi[j], lo[j])
		if n == 0 || int64(top) < loWant || int64(lo[j]) > hiWant {
			misses++
			fmt.Fprintf(logw, "probe: %s phi=%g answer %g has ranks [%d, %d] of %d, outside ε=%g\n",
				label, phi, answers[j], lo[j], hi[j], n, eps)
		}
	}
	return misses
}

// sends returns how many times each of period request slots was sent when
// requests 0..reqs-1 cycle through them.
func sends(reqs, period int) []uint64 {
	out := make([]uint64, period)
	for j := range out {
		out[j] = uint64(reqs / period)
		if j < reqs%period {
			out[j]++
		}
	}
	return out
}

// lognormal fills a fresh slice with n log-normal values times scale: a
// skewed, latency-like distribution with no ties.
func lognormal(r *rng.RNG, n int, scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = scale * math.Exp(r.NormFloat64())
	}
	return out
}

func bounds(vs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// newWorkload builds the named workload's inputs from seed.
func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "flat":
		return newFlat(seed), nil
	case "keyed-window":
		return newKeyedWindow(seed), nil
	case "ship-tree":
		return newShipTree(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want flat, keyed-window or ship-tree)", name)
}
