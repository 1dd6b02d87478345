package main

import (
	"io"
	"testing"

	"repro/internal/exact"
	"repro/internal/rng"
)

// TestMultisetRankMatchesExpandedStream checks the repeated-pool ranks
// against exact.Rank over the stream written out in full, with ties
// between blocks and within one.
func TestMultisetRankMatchesExpandedStream(t *testing.T) {
	r := rng.New(3)
	a := lognormal(r, 500, 1)
	b := lognormal(r, 300, 2)
	b[7], b[8] = a[3], a[3] // ties across and within blocks
	var m multiset
	m.add(a, 3)
	m.add(b, 5)
	m.addGen(len(a), func() []float64 { return a }, 0) // never sent: ignored
	var stream []float64
	for i := 0; i < 3; i++ {
		stream = append(stream, a...)
	}
	for i := 0; i < 5; i++ {
		stream = append(stream, b...)
	}
	if m.n() != uint64(len(stream)) {
		t.Fatalf("n = %d, want %d", m.n(), len(stream))
	}
	probes := []float64{a[3], b[0], a[100], -1, 1e9}
	lo, hi := m.ranks(probes)
	for i, v := range probes {
		wl, wh := exact.Rank(stream, v)
		if lo[i] != uint64(wl) || hi[i] != uint64(wh) {
			t.Errorf("rank(%g) = [%d, %d], want [%d, %d]", v, lo[i], hi[i], wl, wh)
		}
	}
}

// TestJudgeAgreesWithRankError compares the multiset judge with
// exact.RankError on the expanded stream for every element and a φ grid.
func TestJudgeAgreesWithRankError(t *testing.T) {
	defer func(w io.Writer) { logw = w }(logw)
	logw = io.Discard
	r := rng.New(9)
	block := lognormal(r, 200, 1)
	var m multiset
	m.add(block, 4)
	var stream []float64
	for i := 0; i < 4; i++ {
		stream = append(stream, block...)
	}
	for _, phi := range probePhis {
		for _, v := range block {
			want := exact.RankError(stream, v, phi, eps) != 0
			got := m.judge("t", []float64{v}, []float64{phi}, eps) == 1
			if got != want {
				t.Fatalf("phi=%g v=%g: judge miss=%v, RankError miss=%v", phi, v, got, want)
			}
		}
	}
}

func TestSends(t *testing.T) {
	got := sends(10, 4)
	want := []uint64{3, 3, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sends(10, 4) = %v, want %v", got, want)
		}
	}
}
