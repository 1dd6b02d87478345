package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// config is one benchmark pass.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	quantiled string // the server binary
	workdir   string // a traced run's spans file goes here
	// setups is how many times the server is started and warmed; setup_s
	// is their median, and each server is measured for an equal share of
	// seconds.
	setups int
	// Validity guards: a run that breaks one is refused, not reported.
	minQueries int     // the p99 rule needs ≥ 1000 queries in each phase
	maxLateMs  float64 // bound on the generator's own p99 send lateness
	maxTrend   float64 // bound on |second-half / first-half ingest rate − 1|, scaled by the workload's trendScale
	// prefix runs the server under another command (the sensitivity runs'
	// CPU pinning); empty in normal runs.
	prefix []string
}

// errInvalid marks a run that measured nothing trustworthy; errDisturbed
// marks one whose cause was outside interference, which a new attempt may
// not meet.
var (
	errInvalid   = errors.New("invalid run")
	errDisturbed = fmt.Errorf("%w: disturbed", errInvalid)
)

type opKind uint8

const (
	opIngest opKind = iota
	opQuery
)

// op is one request of the measured phase: the span the traced run
// records for it. For a query, due is when the open-loop schedule wanted
// it sent.
type op struct {
	kind            opKind
	idx             int // ingest request number, or query number
	due, sent, done time.Time
	ok              bool
	values          uint64
}

// phase is what one measured phase observed.
type phase struct {
	ops               []op
	start, ingestEnd  time.Time
	end               time.Time
	before, after     scrape
	cpuBefore, cpuEnd float64
	reqs              int // ingest requests acknowledged, warm-up included
	failed            int
	lateMs            []float64
	// slow is the host's slowdown over the phase (hostspeed.go); the
	// phase's timings are reported at reference speed. Zero means 1.
	slow float64
}

// clients are the generator's two connections: one for the closed-loop
// ingest, one for the open-loop queries (and readiness polls, scrapes and
// probes outside the measured phase).
type clients struct {
	ingest, query *http.Client
}

func newClients() clients {
	one := func() *http.Client {
		return &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	return clients{ingest: one(), query: one()}
}

func (c clients) close() {
	c.ingest.CloseIdleConnections()
	c.query.CloseIdleConnections()
}

// post sends one ingest body and returns the response body of a 200.
func post(c *http.Client, url, ct string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, ct, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// setup starts quantiled and sends the warm-up requests. It returns the
// server and the setup time: exec until the last warm-up ack.
func setup(cfg config, w *workload, c clients) (*server, uint64, float64, error) {
	srv, err := startServer(serverOpts{bin: cfg.quantiled, prefix: cfg.prefix}, w.args, c.query)
	if err != nil {
		return nil, 0, 0, err
	}
	var acked uint64
	var buf []byte
	url := srv.base + w.ingestPath
	for i := 0; i < w.warmReqs; i++ {
		buf = w.body(buf[:0], i)
		resp, err := post(c.ingest, url, w.ingestCT, buf)
		if err == nil {
			err = w.ack(resp, i, acked)
		}
		if err != nil {
			srv.stop()
			return nil, 0, 0, fmt.Errorf("warm-up request %d: %w", i, err)
		}
		acked += w.values(i)
	}
	return srv, acked, time.Since(srv.execAt).Seconds(), nil
}

func scrapeMetrics(c *http.Client, base string) (scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseScrape(resp.Body)
}

// measure runs a measured phase: the closed ingest loop continues the
// warm-up's request sequence for length while the open-loop schedule sends
// queries at the workload's rate.
func measure(length time.Duration, w *workload, c clients, srv *server, acked uint64) (*phase, error) {
	ph := &phase{reqs: w.warmReqs}
	var err error
	if ph.before, err = scrapeMetrics(c.query, srv.base); err != nil {
		return nil, err
	}
	if ph.cpuBefore, err = cpuSeconds(srv.pid()); err != nil {
		return nil, err
	}
	nq := int(length.Seconds() * w.queryRate)
	ph.start = time.Now()
	deadline := ph.start.Add(length)

	var ingestOps, queryOps []op
	var ingestErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []byte
		url := srv.base + w.ingestPath
		for i := w.warmReqs; time.Now().Before(deadline); i++ {
			buf = w.body(buf[:0], i)
			o := op{kind: opIngest, idx: i, values: w.values(i), sent: time.Now()}
			resp, err := post(c.ingest, url, w.ingestCT, buf)
			o.done = time.Now()
			if err == nil {
				err = w.ack(resp, i, acked)
			}
			o.ok = err == nil
			ingestOps = append(ingestOps, o)
			if err != nil {
				// The closed loop stops: later acks could not be judged
				// against a known stream.
				ingestErr = fmt.Errorf("ingest request %d: %w", i, err)
				return
			}
			acked += o.values
		}
	}()

	queryURL := srv.base
	var prevDone time.Time
	for i := 0; i < nq; i++ {
		q := w.query(i)
		due := ph.start.Add(time.Duration(float64(i) / w.queryRate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := op{kind: opQuery, idx: i, due: due, sent: time.Now()}
		resp, err := c.query.Get(queryURL + q.path)
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
			}
		}
		o.done = time.Now()
		if err == nil {
			err = q.check(body)
		}
		o.ok = err == nil
		if err != nil {
			fmt.Fprintf(logw, "query %d %s: %v\n", i, q.path, err)
		}
		ph.lateMs = append(ph.lateMs, float64(genLate(due, prevDone, o.sent))/1e6)
		prevDone = o.done
		queryOps = append(queryOps, o)
	}
	wg.Wait()
	ph.end = time.Now()
	if ingestErr != nil {
		fmt.Fprintf(logw, "%v\n", ingestErr)
	}
	for _, o := range ingestOps {
		if o.ok {
			ph.reqs++
		}
		ph.ingestEnd = o.done
	}
	ph.ops = append(ingestOps, queryOps...)
	sort.SliceStable(ph.ops, func(i, j int) bool { return ph.ops[i].sent.Before(ph.ops[j].sent) })
	for _, o := range ph.ops {
		if !o.ok {
			ph.failed++
		}
	}
	if ph.cpuEnd, err = cpuSeconds(srv.pid()); err != nil {
		return nil, err
	}
	if ph.after, err = scrapeMetrics(c.query, srv.base); err != nil {
		return nil, err
	}
	return ph, nil
}

// e2e are the end-to-end figures of one measured phase.
type e2e struct {
	ingestPerS    float64
	p50, p90, p99 float64 // ms, failed queries counted as +Inf
	slow          float64 // median host slowdown over the phases
	queries       int     // over the pass
	minQueries    int     // in the pass's smallest phase
	ingestReqs    int
	failedFrac    float64
	lateP99       float64
	trend         float64
}

// summarize computes a pass's end-to-end figures from its phases, one per
// server. The ingest rate and the latency percentiles are each phase's
// figure at reference host speed, and the pass reports their median, so
// one server that drew a bad hand — a burst of outside load, an unlucky
// collector cycle — does not set them; a failed query still makes its
// percentile infinite for the whole pass. The trend is the phase trend
// furthest from zero.
func summarize(phs []*phase) e2e {
	r := e2e{minQueries: math.MaxInt}
	var rates, p50s, p90s, p99s, slows, late []float64
	var ops, failed int
	for _, ph := range phs {
		var vals uint64
		var lat []float64
		for _, o := range ph.ops {
			switch o.kind {
			case opIngest:
				r.ingestReqs++
				if o.ok {
					vals += o.values
				}
			case opQuery:
				if o.ok {
					lat = append(lat, float64(dueLatency(o.due, o.done))/1e6)
				} else {
					lat = append(lat, math.Inf(1))
				}
			}
		}
		slow := ph.slow
		if slow == 0 {
			slow = 1
		}
		slows = append(slows, slow)
		rates = append(rates, slow*ratio(float64(vals), ph.ingestEnd.Sub(ph.start).Seconds()))
		r.queries += len(lat)
		r.minQueries = min(r.minQueries, len(lat))
		p50, _ := percentile(lat, 0.50)
		p90, _ := percentile(lat, 0.90)
		p99, _ := percentile(lat, 0.99)
		p50s, p90s, p99s = append(p50s, p50/slow), append(p90s, p90/slow), append(p99s, p99/slow)
		late = append(late, ph.lateMs...)
		ops += len(ph.ops)
		failed += ph.failed
		if t := trend(ph.ops, ph.start, ph.ingestEnd); math.Abs(t) >= math.Abs(r.trend) {
			r.trend = t
		}
	}
	r.ingestPerS = median(rates)
	r.p50, r.p90, r.p99 = failMedian(p50s), failMedian(p90s), failMedian(p99s)
	r.slow = median(slows)
	r.lateP99, _ = percentile(late, 0.99)
	r.failedFrac = ratio(float64(failed), float64(ops))
	return r
}

// validate refuses a phase whose numbers would mislead.
func validate(cfg config, w *workload, r e2e) error {
	maxTrend := cfg.maxTrend * w.trendScale
	switch {
	case r.minQueries < cfg.minQueries:
		return fmt.Errorf("%w: a phase held %d queries, the p99 rule needs at least %d", errInvalid, r.minQueries, cfg.minQueries)
	case r.lateP99 > cfg.maxLateMs:
		return fmt.Errorf("%w: the generator ran late (p99 %.3f ms > %.1f ms)", errDisturbed, r.lateP99, cfg.maxLateMs)
	case math.Abs(r.trend) > maxTrend:
		return fmt.Errorf("%w: ingest rate trends %+.1f%% between the phase's halves (bound %.0f%%); the stream position is not pinned",
			errDisturbed, 100*r.trend, 100*maxTrend)
	}
	return nil
}
