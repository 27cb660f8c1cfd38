#!/usr/bin/env python3
"""Steadiness check: run the benchmark on seeds 1-10 for every workload in
BENCHMARK.json and report, for each end-to-end metric, the median and the
interquartile distance as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them), against the metric's bound.

    python3 perfbench/steady.py

Run from the root of the repository. Exits 1 if a run fails or reports
"correct": false, or if a spread (setup_s excepted) is not below a third of
its bound.
"""
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in SEEDS:
            res = run_once(bench["command"], workload, seed, bench["run_seconds"])
            if not res["correct"] or res["failed"]:
                print(f"{workload} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}")
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            steady = spread < bounds[name] / 3
            if not steady and name != "setup_s":
                ok = False
            print(f"  {workload:14} {name:24} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} bound {bounds[name]} -> "
                  f"{'steady' if steady else 'NOT STEADY'}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
