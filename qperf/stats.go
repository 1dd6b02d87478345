package main

import (
	"math"
	"slices"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: p99 needs ≥ 1000 samples, p50 needs ≥ 20.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (q in (0,1)) and
// whether xs is large enough to report it: at least minTail samples must
// lie strictly beyond the percentile's rank. xs is sorted in place. A
// failed operation enters xs as +Inf, so it counts as slower than any
// success.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	slices.Sort(xs)
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	if n-1-idx < minTail {
		return xs[idx], false
	}
	return xs[idx], true
}

// dueLatency is an open-loop query's latency: from the moment it was due
// to be sent, not from when the generator actually sent it, so a stall
// that delays later queries is charged to them too.
func dueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// genLate is how late the generator itself was in sending a query: the
// send time minus the later of its due time and the previous query's
// completion. Time spent waiting for the server's previous answer is the
// server's, not the generator's.
func genLate(due, prevDone, sent time.Time) time.Duration {
	ready := due
	if prevDone.After(ready) {
		ready = prevDone
	}
	if sent.Before(ready) {
		return 0
	}
	return sent.Sub(ready)
}

// trendBuckets is how many equal time buckets trend cuts the ingest phase
// into.
const trendBuckets = 10

// trend compares the ingest rate of the second half of the phase with the
// first: the median rate of the second half's buckets over the median of
// the first half's, minus one. A pinned stream position gives a trend near
// zero; a large value means the run measured a moving target. Medians keep
// one burst of outside interference from reading as a trend.
func trend(ops []op, start, end time.Time) float64 {
	span := end.Sub(start)
	if span <= 0 {
		return math.Inf(1)
	}
	var vals [trendBuckets]float64
	for _, o := range ops {
		if o.kind == opIngest && o.ok {
			b := min(trendBuckets-1, int(int64(trendBuckets)*int64(o.done.Sub(start))/int64(span)))
			vals[max(0, b)] += float64(o.values)
		}
	}
	first, second := median(vals[:trendBuckets/2]), median(vals[trendBuckets/2:])
	if first == 0 {
		return math.Inf(1)
	}
	return second/first - 1
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// failMedian is the median of per-phase latency percentiles, unless one
// of them is infinite: failed queries are slower than any success, and no
// other phase's figure may hide them.
func failMedian(xs []float64) float64 {
	if slices.ContainsFunc(xs, func(x float64) bool { return math.IsInf(x, 1) }) {
		return math.Inf(1)
	}
	return median(xs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
