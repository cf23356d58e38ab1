#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly on unchanged code and
print, per end-to-end metric, the spread of its values against the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--seconds S]

Run from the repository root.  Every workload of BENCHMARK.json runs with
seeds 1 to --runs.  The spread is the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) as a share of the
median; it should stay below a third of the bound.  One traced run per
workload follows; its trace.cpu_s against the median cpu_s of the
untraced runs is the tracing overhead.  Exits 1 if a run fails a check,
if the share of failed operations differs between runs, or if a spread
exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for i in range(args.runs):
            seed = i + 1
            res = run_once(workload, seed, args.seconds, False)
            results.append(res)
            summary = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {summary}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if not all(r["correct"] for r in results) or len(shares) != 1:
            print(f"{workload}: FAILED CHECKS or unequal failed shares {sorted(shares)}")
            ok = False
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        medians = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            medians[m["name"]] = med
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
                ok = False
            print(f"  {m['name']:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {m['bound']:>6}  {verdict}")
        traced = run_once(workload, 1, args.seconds, True)
        names = {m["name"] for m in bench["per_layer"]}
        if set(traced["metrics"]) != names:
            print(f"  traced run metrics differ from BENCHMARK.json: "
                  f"{sorted(set(traced['metrics']) ^ names)}")
            ok = False
        traced_cpu = traced["metrics"]["trace.cpu_s"]["value"]
        overhead = traced_cpu / medians["cpu_s"] - 1
        print(f"  tracing overhead on cpu_s: {100 * overhead:+.2f}% (traced {traced_cpu:.6g} s)")
        for k, v in traced["metrics"].items():
            if v["value"] != 0:
                print(f"    {k:<26} {v['value']:>14.6g} {v['unit']}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
