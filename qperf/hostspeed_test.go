package main

import (
	"math"
	"testing"
	"time"
)

// TestSlowdownWindow checks that a stretch's slowdown is the median of the
// kernel times sampled inside it, and that a stretch too short to hold
// minHostSamples borrows the samples nearest to it.
func TestSlowdownWindow(t *testing.T) {
	h := &hostMeter{}
	t0 := time.Unix(1000, 0)
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * hostPeriod) }
	// Samples 0..9 read the reference time, 10..19 twice it.
	for i := range 20 {
		ms := refKernelMs
		if i >= 10 {
			ms *= 2
		}
		h.record(at(i), ms)
	}
	if got := h.slowdown(at(0), at(9)); got != 1 {
		t.Errorf("slowdown over the reference stretch = %v, want 1", got)
	}
	if got := h.slowdown(at(10), at(19)); got != 2 {
		t.Errorf("slowdown over the slow stretch = %v, want 2", got)
	}
	// [at(11), at(12)] holds two samples; the five nearest are 9..13 or
	// 10..14, all but at most one of them slow.
	if got := h.slowdown(at(11), at(12)); got != 2 {
		t.Errorf("slowdown over a two-sample stretch = %v, want 2", got)
	}
	if got := (&hostMeter{}).slowdown(t0, at(5)); got != 1 {
		t.Errorf("slowdown with no samples = %v, want 1", got)
	}
}

// TestSummarizeAtReferenceSpeed checks that a phase measured while the host
// ran twice as slow reports twice its measured ingest rate and half its
// measured latencies.
func TestSummarizeAtReferenceSpeed(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ph := &phase{start: t0, slow: 2}
	for i := 0; i < 1000; i++ {
		due := t0.Add(time.Duration(i) * 10 * time.Millisecond)
		ph.ops = append(ph.ops, op{kind: opQuery, due: due, sent: due, done: due.Add(4 * time.Millisecond), ok: true})
		ph.ops = append(ph.ops, op{kind: opIngest, sent: due, done: due.Add(10 * time.Millisecond), ok: true, values: 1000})
	}
	ph.ingestEnd = t0.Add(10 * time.Second)
	r := summarize([]*phase{ph})
	if math.Abs(r.ingestPerS-2e5) > 1e-6 {
		t.Errorf("ingest rate = %v values/s, want 2e5 (1e5 measured, host twice as slow)", r.ingestPerS)
	}
	if r.p50 != 2 || r.p90 != 2 || r.p99 != 2 {
		t.Errorf("p50, p90, p99 = %v, %v, %v ms; want 2 (4 ms measured, host twice as slow)", r.p50, r.p90, r.p99)
	}
	if r.slow != 2 {
		t.Errorf("slowdown = %v, want 2", r.slow)
	}
}

// TestHostMeterSamples runs the real meter briefly: its kernel times must
// be positive and its slowdown finite.
func TestHostMeterSamples(t *testing.T) {
	h := startHostMeter()
	time.Sleep(3 * hostPeriod)
	h.close()
	from := time.Now().Add(-time.Hour)
	if s := h.slowdown(from, time.Now()); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("slowdown = %v, want a positive finite ratio", s)
	}
	if len(h.ms) == 0 {
		t.Error("no kernel samples in three periods")
	}
}
