package main

import (
	"encoding/json"
	"fmt"
	"time"

	quantile "repro"
	"repro/cluster"
	"repro/internal/codec"
	"repro/internal/rng"
)

// ship-tree: quantiled -role coordinator receiving QSHP shipments on
// /v1/ship in a closed loop, with GET /quantile at 200/s. Sixteen seeded
// worker shipments of 2^20 values each are built before timing and
// restamped with a fresh (worker, epoch) on every send. This is the only
// workload where the paper's §6 merge does the work: envelope decode,
// shipment unmarshal, the parallel coordinator's Receive with its undo
// snapshot, the dedup ledger and the coordinator's view rebuild.
const (
	shipWorkers = 16
	shipValues  = 1 << 20
	shipWarm    = 64 * shipWorkers
)

// shipInput regenerates worker i's input. Each worker has its own scale so
// the union is a mixture, not sixteen copies of one distribution.
func shipInput(seed uint64, i int) []float64 {
	return lognormal(rng.New(seed*0x9e3779b97f4a7c15+uint64(i)+1), shipValues, float64(1+i%4))
}

func newShipTree(seed uint64) (*workload, error) {
	blobs := make([][]byte, shipWorkers)
	counts := make([]uint64, shipWorkers)
	names := make([]string, shipWorkers)
	lo, hi := 0.0, 0.0
	for i := range blobs {
		in := shipInput(seed, i)
		ilo, ihi := bounds(in)
		if i == 0 {
			lo, hi = ilo, ihi
		}
		lo, hi = min(lo, ilo), max(hi, ihi)
		c, err := quantile.NewConcurrent[float64](eps, delta, 0, quantile.WithSeed(seed+uint64(i)))
		if err != nil {
			return nil, err
		}
		c.AddAll(in)
		if blobs[i], counts[i], err = c.ShipAndReset(quantile.Float64Codec()); err != nil {
			return nil, err
		}
		names[i] = fmt.Sprintf("worker-%02d", i)
	}
	env := func(i int) cluster.Envelope {
		w := i % shipWorkers
		return cluster.Envelope{
			Worker: names[w], Epoch: uint64(i/shipWorkers) + 1,
			Eps: eps, Delta: delta, Count: counts[w], Blob: blobs[w],
		}
	}
	q := query{path: quantilePath("", 0, flatPhis), phis: flatPhis, lo: lo, hi: hi}
	return &workload{
		name:       "ship-tree",
		args:       []string{"-role", "coordinator"},
		warmReqs:   shipWarm,
		ingestPath: cluster.ShipPath,
		ingestCT:   cluster.ShipContentTypeBinary,
		body: func(dst []byte, i int) []byte {
			e := env(i)
			return e.EncodeBinary(dst)
		},
		values: func(i int) uint64 { return counts[i%shipWorkers] },
		ack: func(resp []byte, i int, before uint64) error {
			var r cluster.ShipResult
			if err := json.Unmarshal(resp, &r); err != nil {
				return err
			}
			want := before + counts[i%shipWorkers]
			if r.Status != cluster.StatusAccepted || r.Count != want {
				return fmt.Errorf("shipment %d: %s with count %d, want %s with %d", i, r.Status, r.Count, cluster.StatusAccepted, want)
			}
			return nil
		},
		trendScale: 1,
		queryRate:  200,
		query:      func(int) query { return q },
		probe: func(p prober, reqs int) (int, int, error) {
			var m multiset
			for i, n := range sends(reqs, shipWorkers) {
				m.addGen(shipValues, func() []float64 { return shipInput(seed, i) }, n)
			}
			return probeFlatGrid(p, &m, lo, hi, eps)
		},
		replayer: func() (replayer, error) {
			c, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Eps: eps, Delta: delta, Seed: serverSeed})
			if err != nil {
				return nil, err
			}
			return &shipReplay{coord: c}, nil
		},
	}, nil
}

// shipReplay replays shipments through the coordinator handler's calls:
// DecodeBinaryEnvelope, then Coordinator.Ingest. The shipment unmarshal is
// timed on its own as well, though Ingest repeats it internally.
type shipReplay struct {
	coord *cluster.Coordinator
}

func (r *shipReplay) ingest(body []byte, t *tally) error {
	t0 := time.Now()
	env, err := cluster.DecodeBinaryEnvelope(body)
	t1 := t.span("ship_envelope", t0)
	if err != nil {
		return err
	}
	if _, err := codec.UnmarshalShipment(env.Blob, codec.Float64()); err != nil {
		return err
	}
	t2 := t.span("ship_unmarshal", t1)
	status, res := r.coord.Ingest(env)
	t.span("cluster_ingest", t2)
	t.values("ship", int(env.Count))
	if res.Status != cluster.StatusAccepted {
		return fmt.Errorf("replayed shipment: %d %s %s", status, res.Status, res.Error)
	}
	return nil
}

func (r *shipReplay) query(q query, t *tally) error {
	t0 := time.Now()
	_, err := r.coord.Quantiles(q.phis)
	t.span("cluster_query", t0)
	return err
}
