"""Run-to-run spread of the benchmark. From the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10                 # every workload
    python3 perfbench/spread.py --workloads wc-shuffle --seeds 1-5
    python3 perfbench/spread.py --seeds 1-3 --trace 1 --out per_layer.json

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
for the ``run_seconds`` of ``BENCHMARK.json``. For each metric it prints
the median and quartiles over the runs (``statistics.quantiles(values,
n=4)``) and the quartile distance as a share of the median; untraced, it
compares that spread with the metric's bound and with a third of it.
Traced, it reports whether each count read the same in every run.
``--out`` writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0,
            "exact": min(values) == max(values)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary: dict = {"run_seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds),
                                      "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.monotonic() - t0
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{name} seed {seed}: run failed (exit {proc.returncode})")
                ok = False
                continue
            result = json.loads(last)
            ok &= result["correct"]
            result["run_wall_s"] = took
            runs.append(result)
            shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                              if k in bounds or k.startswith("trace."))
            print(f"{name} seed {seed}: {took:.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} {shown}", flush=True)
        if not runs:
            continue
        metrics = {}
        for metric in runs[0]["metrics"]:
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][metric]["unit"]
            metrics[metric] = stats
            if metric in bounds:
                bound = bounds[metric]
                verdict = ("steady" if stats["spread"] < bound / 3 else
                           "within bound" if stats["spread"] <= bound else "TOO WIDE")
                print(f"  {name} {metric}: median {stats['median']:.4f} {stats['unit']}, "
                      f"q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f}, spread "
                      f"{stats['spread']:.3f} (bound {bound}): {verdict}")
        if args.trace:
            varying = [m for m, st in metrics.items() if st["unit"] == "count" and not st["exact"]]
            print(f"  {name}: counts that differ between runs: {', '.join(varying) or 'none'}")
        summary["workloads"][name] = {
            "runs": len(runs),
            "max_run_wall_s": max(r["run_wall_s"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
