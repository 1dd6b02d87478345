package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported; only 9 lie beyond it")
	}
	v, ok := percentile(seq(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v (ok=%v), want 990 with 10 beyond", v, ok)
	}
	if v, ok := percentile(seq(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v (ok=%v), want 10", v, ok)
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Error("p50 of 19 samples reported; only 9 lie beyond it")
	}
}

func TestFailuresCountAsMisses(t *testing.T) {
	t0 := time.Unix(0, 0)
	ph := &phase{start: t0}
	for i := 0; i < 1000; i++ {
		due := t0.Add(time.Duration(i) * 20 * time.Millisecond)
		ph.ops = append(ph.ops, op{kind: opQuery, idx: i, due: due, sent: due, done: due.Add(time.Millisecond), ok: i%100 != 7})
	}
	for _, o := range ph.ops {
		if !o.ok {
			ph.failed++
		}
	}
	r := summarize([]*phase{ph})
	if r.failedFrac != 0.01 {
		t.Errorf("failed_frac = %v, want 10/1000", r.failedFrac)
	}
	// Ten failures are the ten slowest samples, so p99 — the sample with
	// exactly ten beyond it — is still a success, and one more failure
	// makes it infinite.
	if r.p99 != 1 {
		t.Errorf("p99 = %v ms, want 1", r.p99)
	}
	ph.ops[500].ok = false
	if r := summarize([]*phase{ph}); !math.IsInf(r.p99, 1) {
		t.Errorf("p99 with 11 failures = %v, want +Inf", r.p99)
	}
	// The pass reports the median of its phases' percentiles, but the
	// median of two clean phases must not hide the third one's failures.
	clean := &phase{start: t0}
	for _, o := range ph.ops {
		o.ok = true
		clean.ops = append(clean.ops, o)
	}
	if r := summarize([]*phase{clean, ph, clean}); !math.IsInf(r.p99, 1) || r.p50 != 1 {
		t.Errorf("p50, p99 over two clean phases and one with 11 failures = %v, %v; want 1 and +Inf", r.p50, r.p99)
	}
}

// TestDueTimeLatencyUnderStall drives the real measured-phase loop against
// a server whose fifth query stalls: the queries queued behind it must be
// charged the wait from their due time, and the generator itself must not
// be reported late for waiting on the server.
func TestDueTimeLatencyUnderStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var queries atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics":
		case "/ingest":
			_, _ = w.Write([]byte("{}"))
		default:
			if queries.Add(1) == 5 {
				time.Sleep(stall)
			}
			_, _ = w.Write([]byte(`{"0.5": 1}`))
		}
	}))
	defer ts.Close()
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	srv := &server{cmd: &exec.Cmd{Process: self}, base: ts.URL}
	w := &workload{
		ingestPath: "/ingest",
		body:       func(dst []byte, _ int) []byte { return dst },
		values:     func(int) uint64 { return 1 },
		ack:        func([]byte, int, uint64) error { return nil },
		trendScale: 1,
		queryRate:  100,
		query: func(int) query {
			return query{path: "/quantile?phi=0.5", phis: []float64{0.5}, lo: 0, hi: 2}
		},
	}
	c := newClients()
	defer c.close()
	ph, err := measure(time.Second, w, c, srv, 0)
	if err != nil {
		t.Fatal(err)
	}
	var qs []op
	for _, o := range ph.ops {
		if o.kind == opQuery {
			qs = append(qs, o)
		}
	}
	if len(qs) != 100 || ph.failed != 0 {
		t.Fatalf("%d queries, %d failed; want 100 and 0", len(qs), ph.failed)
	}
	// Query 4 stalls for 300 ms; queries 5..33 were due during the stall
	// and waited for it on the one query connection.
	for i := 5; i < 30; i++ {
		lat := dueLatency(qs[i].due, qs[i].done)
		want := qs[4].done.Sub(qs[i].due)
		if lat < want {
			t.Errorf("query %d: due latency %v, less than its wait behind the stall %v", i, lat, want)
		}
	}
	if lat := dueLatency(qs[5].due, qs[5].done); lat < stall-20*time.Millisecond {
		t.Errorf("query right after the stall: due latency %v, want ≈ %v", lat, stall)
	}
	if late, _ := percentile(ph.lateMs, 0.5); late > 5 {
		t.Errorf("generator reported late by %.1f ms at p50 while only the server stalled", late)
	}
}

func TestGenLate(t *testing.T) {
	t0 := time.Unix(100, 0)
	ms := time.Millisecond
	for _, c := range []struct {
		due, prev, sent time.Time
		want            time.Duration
	}{
		{t0, t0.Add(-ms), t0.Add(2 * ms), 2 * ms},       // generator slow
		{t0, t0.Add(5 * ms), t0.Add(6 * ms), ms},        // server busy, then 1 ms of generator
		{t0, t0.Add(5 * ms), t0.Add(5 * ms), 0},         // sent as soon as possible
		{t0, time.Time{}, t0.Add(-time.Microsecond), 0}, // early wake-up
	} {
		if got := genLate(c.due, c.prev, c.sent); got != c.want {
			t.Errorf("genLate(due, prev %v, sent %v) = %v, want %v", c.prev.Sub(t0), c.sent.Sub(t0), got, c.want)
		}
	}
}

func TestTrend(t *testing.T) {
	t0 := time.Unix(0, 0)
	var ops []op
	for i := 0; i < 100; i++ {
		vals := uint64(10)
		if i >= 50 {
			vals = 5 // second half runs at half the rate
		}
		if i == 20 {
			vals = 1000 // one burst in the first half does not hide the trend
		}
		ops = append(ops, op{kind: opIngest, ok: true, values: vals, done: t0.Add(time.Duration(i) * time.Millisecond)})
	}
	if got := trend(ops, t0, t0.Add(100*time.Millisecond)); math.Abs(got+0.5) > 1e-9 {
		t.Errorf("trend = %v, want -0.5", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tquantiled\nVmPeak:\t  999 kB\nVmHWM:\t   16384 kB\nVmRSS:\t 1 kB\n"
	if got, err := parseVmHWM([]byte(status)); err != nil || got != 16 {
		t.Errorf("parseVmHWM = %v, %v; want 16 MiB", got, err)
	}
	if _, err := parseVmHWM([]byte(strings.ReplaceAll(status, "VmHWM", "VmXXX"))); err == nil {
		t.Error("missing VmHWM parsed")
	}
}
