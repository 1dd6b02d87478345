// Command qperf is the repository's end-to-end benchmark. It starts the
// quantiled server as a child process on loopback, drives it with a seeded
// single-process generator over two HTTP connections (a closed ingest loop
// and an open-loop query schedule), judges the answers against
// internal/exact, and prints one JSON result line.
//
// Run it through run.sh, which builds both binaries first:
//
//	bash qperf/run.sh --workload flat --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer ledger. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"
)

// logw receives diagnostics; standard output carries only the result.
var logw io.Writer = os.Stderr

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDeadline bounds a whole pass, which must end within 180 s.
const runDeadline = 170 * time.Second

// maxAttempts bounds how often a disturbed measured phase is made again.
const maxAttempts = 3

func main() {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// The generator's steady state allocates little beyond per-request
	// HTTP garbage; collecting less often keeps its pauses out of the
	// latencies it measures.
	debug.SetGCPercent(400)
	cfg, handicap, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(logw, "qperf: %v\n", err)
		os.Exit(2)
	}
	stopBusy := func() {}
	if handicap {
		if stopBusy, cfg.prefix, err = startHandicap(); err != nil {
			fmt.Fprintf(logw, "qperf: handicap: %v\n", err)
			os.Exit(2)
		}
	}
	code := mainRun(cfg, os.Stdout)
	stopBusy()
	os.Exit(code)
}

func parseFlags(args []string) (config, bool, error) {
	fs := flag.NewFlagSet("qperf", flag.ContinueOnError)
	fs.SetOutput(logw)
	cfg := config{setups: 3, minQueries: 1000, maxLateMs: 10, maxTrend: 0.5}
	fs.StringVar(&cfg.workload, "workload", "", "flat, keyed-window or ship-tree")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured time of the pass, shared equally by its three servers")
	trace := fs.Int("trace", 0, "1 prints the per-layer ledger of a traced run instead of the end-to-end metrics")
	fs.StringVar(&cfg.quantiled, "quantiled", "", "quantiled binary (run.sh builds it)")
	fs.StringVar(&cfg.workdir, "workdir", ".", "directory for a traced run's spans file")
	handicap := fs.Bool("handicap", false, "sensitivity check: pin the server and a busy loop to one CPU")
	if err := fs.Parse(args); err != nil {
		return cfg, false, err
	}
	cfg.trace = *trace == 1
	switch {
	case *trace != 0 && *trace != 1:
		return cfg, false, fmt.Errorf("--trace %d: want 0 or 1", *trace)
	case cfg.quantiled == "":
		return cfg, false, errors.New("-quantiled is required (use run.sh)")
	case cfg.seconds <= 0:
		return cfg, false, fmt.Errorf("--seconds %g: want a positive length", cfg.seconds)
	}
	return cfg, *handicap, nil
}

// mainRun runs one pass, prints the result line and returns the exit code:
// 0 for a correct, valid run; 1 when an answer missed or the run failed;
// 3 for an invalid run, which prints no result.
func mainRun(cfg config, out io.Writer) int {
	res, err := runPass(cfg)
	switch {
	case errors.Is(err, errInvalid):
		fmt.Fprintf(logw, "qperf: %v\n", err)
		return 3
	case err != nil:
		fmt.Fprintf(logw, "qperf: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(logw, "qperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runPass sets up, measures and probes each of the pass's servers in turn
// and, when tracing, replays what they saw. The running server is stopped
// on every path; a watchdog stops it and exits if the pass overruns.
func runPass(cfg config) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	c := newClients()
	defer c.close()

	// live is the running server, also read by the watchdog and the
	// signal handler, which stop it before exiting.
	var live atomic.Pointer[server]
	stopLive := func() {
		if s := live.Swap(nil); s != nil {
			s.stop()
		}
	}
	defer stopLive()
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(logw, "qperf: pass exceeded %s\n", runDeadline)
		stopLive()
		os.Exit(1)
	})
	defer watchdog.Stop()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			stopLive()
			os.Exit(1)
		}
	}()

	// An attempt disturbed from outside (the generator ran late, or the
	// ingest rate moved within a phase) measured nothing trustworthy: it is
	// discarded and made again from the first setup while the pass has
	// time for another.
	host := startHostMeter()
	defer host.close()
	begin := time.Now()
	var segs []*segment
	var r e2e
	for attempt := 1; ; attempt++ {
		t0 := time.Now()
		segs = segs[:0]
		for range cfg.setups {
			sg, err := runSegment(cfg, w, c, &live)
			if err != nil {
				return nil, err
			}
			segs = append(segs, sg)
		}
		for i, sg := range segs {
			sg.ph.slow = host.slowdown(sg.ph.start, sg.ph.end)
			sg.setupSlow = host.slowdown(sg.execAt, sg.execAt.Add(time.Duration(sg.setupS*float64(time.Second))))
			pr := summarize([]*phase{sg.ph})
			fmt.Fprintf(logw, "qperf: server %d: host slowdown %.3f, %.4g values/s (%.4g as measured), trend %+.3f, setup %.3f s (slowdown %.3f)\n",
				i+1, sg.ph.slow, pr.ingestPerS, pr.ingestPerS/pr.slow, pr.trend, sg.setupS, sg.setupSlow)
		}
		r = summarize(phases(segs))
		setupS, _, rss := medians(segs)
		fmt.Fprintf(logw, "qperf: %s seed %d at reference host speed (host slowdown %.3f): %.4g values/s, query p50 %.3f p90 %.3f p99 %.3f ms, generator late p99 %.3f ms, trend %+.3f, rss %.1f MiB, setup %.3f s\n",
			w.name, cfg.seed, r.slow, r.ingestPerS, r.p50, r.p90, r.p99, r.lateP99, r.trend, rss, setupS)
		err = validate(cfg, w, r)
		if err == nil {
			break
		}
		if !errors.Is(err, errDisturbed) || attempt == maxAttempts || time.Since(begin)+2*time.Since(t0) > runDeadline {
			return nil, err
		}
		fmt.Fprintf(logw, "qperf: attempt %d discarded: %v\n", attempt, err)
	}

	res := &result{}
	probes := 0
	for _, sg := range segs {
		res.Attempted += len(sg.ph.ops) + sg.probes
		res.Failed += sg.ph.failed + sg.misses
		probes += sg.probes
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(logw, "qperf: %s seed %d: %d ingest requests, %d queries, %d probe checks, %d failed\n",
		w.name, cfg.seed, r.ingestReqs, r.queries, probes, res.Failed)
	var t *tally
	if cfg.trace {
		t = newTally()
		base := 0
		for _, sg := range segs {
			if err := replay(w, sg.ph, t, base); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			base += len(sg.ph.ops)
		}
		spans := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.tsv", cfg.workload, cfg.seed))
		if err := writeSpans(spans, phases(segs), t); err != nil {
			return nil, err
		}
	}
	setupS, readyS, rss := medians(segs)
	if !cfg.trace {
		res.Metrics = map[string]metric{
			"ingest_values_per_s": {r.ingestPerS, "values/s"},
			"query_p50_ms":        {finite(r.p50), "ms"},
			"query_p90_ms":        {finite(r.p90), "ms"},
			"rss_peak_mib":        {rss, "MiB"},
			"setup_s":             {setupS, "s"},
		}
		return res, nil
	}
	res.Metrics = ledger(phases(segs), t, r, rss, readyS)
	for k, m := range res.Metrics {
		m.Value = finite(m.Value)
		res.Metrics[k] = m
	}
	return res, nil
}

// segment is one server's share of a pass: its setup, its slice of the
// measured time and its probe. A pass measures each of its setups' servers
// in turn and pools what they saw, so a quirk of one server process —
// where the kernel placed it, when its collector ran — weighs a third.
type segment struct {
	ph                    *phase
	execAt                time.Time // the server's exec, where setup starts
	setupS, readyS, rssMB float64
	setupSlow             float64 // host slowdown over the setup; zero means 1
	probes, misses        int
}

// medians returns the median setup time at reference host speed, the
// median readiness time and the median peak RSS over the segments.
func medians(segs []*segment) (setupS, readyS, rssMB float64) {
	var setup, ready, rss []float64
	for _, sg := range segs {
		slow := sg.setupSlow
		if slow == 0 {
			slow = 1
		}
		setup = append(setup, sg.setupS/slow)
		ready = append(ready, sg.readyS)
		rss = append(rss, sg.rssMB)
	}
	return median(setup), median(ready), median(rss)
}

func phases(segs []*segment) []*phase {
	out := make([]*phase, len(segs))
	for i, sg := range segs {
		out[i] = sg.ph
	}
	return out
}

// runSegment sets up a server, measures it for its share of the pass and
// probes its answers. The server is stopped before it returns.
func runSegment(cfg config, w *workload, c clients, live *atomic.Pointer[server]) (*segment, error) {
	srv, acked, setupS, err := setup(cfg, w, c)
	if err != nil {
		return nil, err
	}
	live.Store(srv)
	defer func() {
		if s := live.Swap(nil); s != nil {
			s.stop()
		}
	}()
	length := time.Duration(cfg.seconds / float64(cfg.setups) * float64(time.Second))
	ph, err := measure(length, w, c, srv, acked)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB(srv.pid())
	if err != nil {
		return nil, err
	}
	probes, misses, err := w.probe(prober{c.query, srv.base}, ph.reqs)
	if err != nil {
		fmt.Fprintf(logw, "probe: %v\n", err)
	}
	if !srv.alive() {
		return nil, errors.New("quantiled exited during the measured phase")
	}
	return &segment{ph: ph, execAt: srv.execAt, setupS: setupS, readyS: srv.readyS, rssMB: rss, probes: probes, misses: misses}, nil
}

// finite stands in for +Inf (a failed query's latency) in JSON, which has
// no infinity; such a run is already marked incorrect.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// startHandicap starts a busy loop pinned to CPU 0 and returns a prefix
// that pins the server there too, so the server gets about half a core.
// It is the outside handicap of the sensitivity check: no program change.
func startHandicap() (stop func(), prefix []string, err error) {
	taskset, err := exec.LookPath("taskset")
	if err != nil {
		return nil, nil, err
	}
	busy := exec.Command(taskset, "-c", "0", "sh", "-c", "while :; do :; done")
	busy.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := busy.Start(); err != nil {
		return nil, nil, err
	}
	stop = func() {
		_ = busy.Process.Kill()
		_ = busy.Wait() // killed on purpose; its exit status says so
	}
	return stop, []string{taskset, "-c", "0"}, nil
}
