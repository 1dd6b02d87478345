#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 qperf/spread.py --workload flat --seeds 1-10 [--trace 0] [--out runs.jsonl] [-- --handicap]

For every metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the interquartile
distance as a share of the median, next to the bound BENCHMARK.json fixes.
Each run's result line is appended to --out when given, tagged with the
workload, the seed and the extra flags after "--" that the run was given.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    ap.add_argument("extra", nargs="*", help="extra flags passed to the benchmark")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    values = {}
    failed = 0
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", args.trace] + args.extra
        p = subprocess.run(cmd, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            failed += 1
            sys.stderr.write(p.stderr[-2000:])
            print(f"seed {seed}: exit {p.returncode}", flush=True)
            continue
        res = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, "extra": args.extra,
                                    "result": res}) + "\n")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
    if failed:
        print(f"{failed} run(s) failed")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:36} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound if bound is not None else '':>6}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
