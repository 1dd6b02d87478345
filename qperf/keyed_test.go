package main

import (
	"testing"

	"repro/internal/keyed"
	"repro/internal/rng"
)

// TestHotKeysSurviveLRU replays the keyed-window key sequence through a
// model of the store's striped LRU (keyed.DefaultShards stripes, each
// capped at ⌈keys-max/stripes⌉, evicting its least recently used key on
// insert) and checks that no key the all-time probe judges is ever
// evicted: that probe judges a key against everything ever sent under it.
// The real store hashes keys to stripes with a per-process seed, so the
// model tries many random assignments per workload seed, and it demands a
// margin: no key of rank below twice keyedProbed may be evicted either.
// Queries also touch keys, which only helps the hot ones, so the model
// leaves them out.
func TestHotKeysSurviveLRU(t *testing.T) {
	const assignments = 30
	perShard := (keyedMaxKeys + keyed.DefaultShards - 1) / keyed.DefaultShards
	lowest := keyedKeys // the lowest rank any trial evicted
	for seed := uint64(1); seed <= 10; seed++ {
		frames := keyedFrames(seed)
		for assign := uint64(0); assign < assignments; assign++ {
			r := rng.New(seed<<8 | assign)
			shardOf := make([]int, keyedKeys)
			for k := range shardOf {
				shardOf[k] = r.Intn(keyed.DefaultShards)
			}
			// last[k] is the tick key k was last touched; shards hold their
			// resident keys.
			last := make([]int, keyedKeys)
			resident := make([]map[int]bool, keyed.DefaultShards)
			for i := range resident {
				resident[i] = map[int]bool{}
			}
			tick := 0
			// The warm-up is two cycles of the periodic key sequence, after
			// which the LRU state repeats; a third covers the measured phase.
			for cycle := 0; cycle < 3; cycle++ {
				for _, fs := range frames {
					for _, f := range fs {
						tick++
						sh := resident[shardOf[f.rank]]
						if !sh[f.rank] && len(sh) >= perShard {
							victim, oldest := -1, tick
							for k := range sh {
								if last[k] < oldest {
									victim, oldest = k, last[k]
								}
							}
							lowest = min(lowest, victim)
							delete(sh, victim)
						}
						sh[f.rank] = true
						last[f.rank] = tick
					}
				}
			}
		}
	}
	t.Logf("lowest evicted rank over %d trials: %d", 10*assignments, lowest)
	if lowest < 2*keyedProbed {
		t.Errorf("a key of rank %d was evicted; the all-time probe judges ranks below %d and wants a margin to %d",
			lowest, keyedProbed, 2*keyedProbed)
	}
}
