package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"
)

// replayer is the in-process target a traced run replays its live
// requests into: the public functions the server's handlers call, with a
// child span around each.
type replayer interface {
	ingest(body []byte, t *tally) error
	query(q query, t *tally) error
}

// tally accumulates child spans by name: total time and count, plus the
// stream values each stage consumed. It also keeps every span, under the
// live request (op) it replays, for the spans file.
type tally struct {
	dur   map[string]time.Duration
	n     map[string]int
	vals  map[string]int
	op    int // the live request being replayed
	spans []childSpan
}

type childSpan struct {
	op   int
	name string
	dur  time.Duration
}

func newTally() *tally {
	return &tally{dur: map[string]time.Duration{}, n: map[string]int{}, vals: map[string]int{}}
}

func (t *tally) add(name string, d time.Duration) {
	t.dur[name] += d
	t.n[name]++
	t.spans = append(t.spans, childSpan{t.op, name, d})
}

// span closes a span opened at start and returns its end, the next
// span's start.
func (t *tally) span(name string, start time.Time) time.Time {
	now := time.Now()
	t.add(name, now.Sub(start))
	return now
}

func (t *tally) values(name string, n int) { t.vals[name] += n }

// meanUs is the mean span of name in µs (0 when it never ran).
func (t *tally) meanUs(name string) float64 {
	return ratio(float64(t.dur[name].Microseconds()), float64(t.n[name]))
}

// nsPerValue is name's total time over the values stage consumed.
func (t *tally) nsPerValue(name, stage string) float64 {
	return ratio(float64(t.dur[name].Nanoseconds()), float64(t.vals[stage]))
}

// ingestStages and queryStages name the child spans that make up one
// replayed request of each kind, per workload. The ship-tree unmarshal
// span is excluded: Coordinator.Ingest repeats it inside its own span.
var (
	ingestStages = []string{"slab_decode", "sketch_add", "keyed_decode", "keyed_add", "ship_envelope", "cluster_ingest"}
	queryStages  = []string{"query", "window_query", "cluster_query"}
)

// replay feeds the warm-up and then a live phase's requests, in the order
// they were sent, through a fresh in-process target, recording child spans
// in t under the live ops' numbers offset by base. The warm-up is untimed,
// so the replay starts from the same stream position.
func replay(w *workload, ph *phase, t *tally, base int) error {
	rp, err := w.replayer()
	if err != nil {
		return err
	}
	var buf []byte
	warm := newTally()
	for i := 0; i < w.warmReqs; i++ {
		buf = w.body(buf[:0], i)
		if err := rp.ingest(buf, warm); err != nil {
			return err
		}
	}
	for i, o := range ph.ops {
		if !o.ok {
			continue
		}
		t.op = base + i
		switch o.kind {
		case opIngest:
			buf = w.body(buf[:0], o.idx)
			err = rp.ingest(buf, t)
		case opQuery:
			err = rp.query(w.query(o.idx), t)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeSpans writes the live spans and the replayed child spans, one per
// line, times in µs from the start of the span's measured phase. Ops are
// numbered across the pass's phases.
//
//	live	<op>	<phase>	ingest|query	<due>	<sent>	<done>	<ok>	<values>
//	child	<op>	<name>	<duration>
func writeSpans(path string, phs []*phase, t *tally) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	op := 0
	for p, ph := range phs {
		us := func(at time.Time) float64 {
			if at.IsZero() {
				return 0
			}
			return float64(at.Sub(ph.start).Nanoseconds()) / 1e3
		}
		for _, o := range ph.ops {
			kind := "ingest"
			if o.kind == opQuery {
				kind = "query"
			}
			fmt.Fprintf(bw, "live\t%d\t%d\t%s\t%.1f\t%.1f\t%.1f\t%v\t%d\n", op, p, kind, us(o.due), us(o.sent), us(o.done), o.ok, o.values)
			op++
		}
	}
	for _, c := range t.spans {
		fmt.Fprintf(bw, "child\t%d\t%s\t%.1f\n", c.op, c.name, float64(c.dur.Nanoseconds())/1e3)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledger computes the per-layer metrics of a traced run: Δ figures from
// the /metrics scrapes around the live phase, T figures from the replay,
// HTTP self time as the live span minus the replayed child spans.
func ledger(phs []*phase, t *tally, r e2e, rssMiB, readyS float64) map[string]metric {
	// Δ figures sum over the phases; gauges are the median of the phases'
	// final readings.
	d := func(series string) float64 {
		var s float64
		for _, ph := range phs {
			s += diff(ph.before, ph.after, series)
		}
		return s
	}
	dsum := func(prefix string) float64 {
		var s float64
		for _, ph := range phs {
			for series := range ph.after {
				if strings.HasPrefix(series, prefix) {
					s += diff(ph.before, ph.after, series)
				}
			}
		}
		return s
	}
	gauge := func(series string) float64 {
		var v []float64
		for _, ph := range phs {
			v = append(v, ph.after[series])
		}
		return median(v)
	}
	queries := float64(r.queries)

	var liveIngest, liveQuery []float64
	var cpu, wall float64
	for _, ph := range phs {
		for _, o := range ph.ops {
			if !o.ok {
				continue
			}
			us := float64(o.done.Sub(o.sent).Nanoseconds()) / 1e3
			if o.kind == opIngest {
				liveIngest = append(liveIngest, us)
			} else {
				liveQuery = append(liveQuery, us)
			}
		}
		cpu += ph.cpuEnd - ph.cpuBefore
		wall += ph.end.Sub(ph.start).Seconds()
	}
	var childIngest, childQuery float64
	for _, s := range ingestStages {
		childIngest += float64(t.dur[s].Microseconds())
	}
	for _, s := range queryStages {
		childQuery += float64(t.dur[s].Microseconds())
	}
	ingestSelf := mean(liveIngest) - ratio(childIngest, float64(len(liveIngest)))
	querySelf := mean(liveQuery) - ratio(childQuery, float64(len(liveQuery)))

	srvIngSum := d(`http_request_seconds_sum{endpoint="ingest"}`) + d(`http_request_seconds_sum{endpoint="ingest_keyed"}`)
	srvIngCnt := d(`http_request_seconds_count{endpoint="ingest"}`) + d(`http_request_seconds_count{endpoint="ingest_keyed"}`)
	srvIngUs := ratio(srvIngSum, srvIngCnt) * 1e6
	outside := 0.0
	if srvIngCnt > 0 {
		outside = mean(liveIngest) - srvIngUs
	}
	merges := d("cluster_merge_seconds_count")

	m := map[string]metric{
		"httpapi.ingest_server_us_per_req":  {srvIngUs, "us"},
		"httpapi.ingest_outside_us_per_req": {outside, "us"},
		"httpapi.query_server_us": {ratio(d(`http_request_seconds_sum{endpoint="quantile"}`),
			d(`http_request_seconds_count{endpoint="quantile"}`)) * 1e6, "us"},
		"httpapi.request_errors":          {dsum("http_request_errors_total"), "count"},
		"http.ingest_live_us_per_req":     {mean(liveIngest), "us"},
		"http.ingest_self_us_per_req":     {ingestSelf, "us"},
		"http.query_live_us":              {mean(liveQuery), "us"},
		"http.query_self_us":              {querySelf, "us"},
		"codec.slab_decode_ns_per_value":  {t.nsPerValue("slab_decode", "slab"), "ns/value"},
		"codec.keyed_decode_ns_per_value": {t.nsPerValue("keyed_decode", "keyed"), "ns/value"},
		"codec.ship_decode_us": {ratio(float64((t.dur["ship_envelope"] + t.dur["ship_unmarshal"]).Microseconds()),
			float64(t.n["ship_envelope"])), "us"},
		"sketch.add_ns_per_value":        {t.nsPerValue("sketch_add", "slab"), "ns/value"},
		"sketch.view_rebuild_us":         {t.meanUs("view_rebuild"), "us"},
		"sketch.rebuilds_per_query":      {ratio(d("sketch_view_rebuilds_total"), queries), "ratio"},
		"sketch.memory_elements":         {gauge("sketch_memory_elements"), "count"},
		"keyed.add_ns_per_value":         {t.nsPerValue("keyed_add", "keyed"), "ns/value"},
		"keyed.keys_created":             {d("keyed_keys_created_total"), "count"},
		"keyed.evictions_lru":            {d(`keyed_evictions_total{reason="lru"}`), "count"},
		"keyed.memory_bound_elements":    {gauge("keyed_memory_bound_elements"), "count"},
		"window.query_us":                {t.meanUs("window_query"), "us"},
		"window.rebuilds_per_query":      {ratio(d("keyed_window_rebuilds_total"), queries), "ratio"},
		"window.rotations":               {d("keyed_window_rotations_total"), "count"},
		"cluster.ingest_us_per_shipment": {t.meanUs("cluster_ingest"), "us"},
		"cluster.merge_us_per_shipment":  {ratio(d("cluster_merge_seconds_sum"), merges) * 1e6, "us"},
		"cluster.view_rebuild_us": {ratio(d("cluster_view_rebuild_seconds_sum"),
			d("cluster_view_rebuild_seconds_count")) * 1e6, "us"},
		"cluster.rebuilds_per_query":     {ratio(d("cluster_view_rebuilds_total"), queries), "ratio"},
		"cluster.bytes_per_shipment":     {ratio(d("cluster_bytes_ingested_total"), d("cluster_shipments_accepted_total")), "bytes"},
		"cluster.shipments_not_accepted": {d("cluster_shipments_rejected_total") + d("cluster_shipments_deduped_total"), "count"},
		"quantiled.cpu_util":             {ratio(cpu, wall), "cores"},
		"quantiled.ready_s":              {readyS, "s"},
		"quantiled.rss_peak_mib":         {rssMiB, "MiB"},
		"gen.late_p99_ms":                {r.lateP99, "ms"},
		"gen.queries":                    {queries, "count"},
		"gen.ingest_requests":            {float64(r.ingestReqs), "count"},
		"gen.ingest_trend":               {r.trend, "fraction"},
		"failed_frac":                    {r.failedFrac, "fraction"},
		"trace.live_ingest_values_per_s": {r.ingestPerS, "values/s"},
		"trace.live_query_p50_ms":        {r.p50, "ms"},
		"trace.live_query_p90_ms":        {r.p90, "ms"},
		"trace.live_query_p99_ms":        {r.p99, "ms"},
		"host.slowdown":                  {r.slow, "ratio"},
	}
	return m
}
