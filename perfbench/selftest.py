"""Self-test of the benchmark. From the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at a tiny input size, traced and untraced, and checks
that each emits exactly the metric names and units of ``BENCHMARK.json``,
that the traced layers' self times add up to the traced job time, that
each workload's loaded layers report non-zero counts (so a wrapper that
lost its entry point cannot pass as a speed-up), that the
correctness gate flags a corrupted part file, that spans recorded in forked
worker processes are merged, and that ``run.py`` fails without a result in
a directory that holds only the benchmark. Exits non-zero on the first
failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
from tracer import Installation, Tracer, register_timed_functions  # noqa: E402
from workloads import WORKLOADS, Workload, check_job  # noqa: E402

from minimapred import run_job  # noqa: E402

TINY = {"wordcount": 256 * 1024, "uservisits": 3000}  # bytes / rows


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def declared(key: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


# Per-layer counts that must be above zero on a workload: a wrapper that
# stopped seeing its entry point would report 0, which reads as a gain.
LOADED = {
    "*": ("dfs.read_chunk.calls", "dfs.read_split.records", "jobs.map.calls",
          "jobs.reduce.groups", "tasks.write_run.pairs", "tasks.shuffle.pairs",
          "executors.execute_task.calls", "schedule.calls", "dfs.write_output.bytes"),
    "wc-combine": ("jobs.combine.groups",),
    "wc-shuffle": ("tasks.spill.files", "tasks.iter_run.pairs", "dfs.local.bytes_read"),
    "uv-parallel": ("jobs.map.skipped", "executors.queue_wait_s"),
    "wc-failover": ("fault.recover.calls", "fault.reexecuted_maps",
                    "fault.wasted_task_s", "master.stale_results"),
}


def tiny_size(w: Workload) -> int:
    """The self-test's input size for ``w``. The scripted node death only
    re-executes a map when the node held a completed one, which takes the
    full input's two splits."""
    return w.size if w.fail_node_after is not None else TINY[w.job]


def tiny(w: Workload) -> Workload:
    """``w`` for ``tiny_size``; a spill threshold shrinks with the input,
    so map tasks spill as they do at full size."""
    if w.spill_pairs is None:
        return w
    return replace(w, spill_pairs=w.spill_pairs * tiny_size(w) // w.size)


def metric_names_and_units(scratch: str) -> None:
    lines: list[str] = []
    for w in WORKLOADS.values():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            r = harness.run(tiny(w), seed=7, seconds=0.1, trace=trace, root=scratch,
                            size=tiny_size(w), emit=lines.append)
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{w.name} trace={int(trace)}: every job correct")
            got = {n: v["unit"] for n, v in r["metrics"].items()}
            check(got == declared(key), f"{w.name} trace={int(trace)}: {key} names and units")
            if trace:
                values = {n: v["value"] for n, v in r["metrics"].items()}
                ratio = values["trace.layer_sum_ratio"]
                check(abs(ratio - 1) <= harness.LAYER_SUM_TOLERANCE,
                      f"{w.name}: layer self times sum to traced job_s ({ratio:.4f})")
                zero = [n for n in LOADED["*"] + LOADED[w.name] if not values[n] > 0]
                check(not zero, f"{w.name}: loaded layers report non-zero counts "
                      f"({', '.join(zero) or 'all non-zero'})")


def gate_flags_corruption(scratch: str) -> None:
    for name in ("wc-combine", "uv-parallel"):
        w = WORKLOADS[name]
        runner = harness.Runner(w, 3, tempfile.mkdtemp(dir=scratch), TINY[w.job])
        cluster = runner.setup()
        result = run_job(cluster, runner.spec(runner.fn_ids), runner.options, runner.plan)
        report = result.report
        check(check_job(cluster, report, runner.inp, result.events, w) == [],
              f"{name}: gate passes the engine's parts")
        path = report.parts[0]
        good = cluster.get_file(path)
        cluster.put_file(path, good[:-2] + bytes([good[-2] ^ 1]) + b"\n", overwrite=True)
        check(check_job(cluster, report, runner.inp, result.events, w) != [],
              f"{name}: gate flags a part with one changed byte")
        lines = good.splitlines(keepends=True)
        cluster.put_file(path, b"".join(lines[1:] + lines[:1]), overwrite=True)
        check(check_job(cluster, report, runner.inp, result.events, w) != [],
              f"{name}: gate flags a part whose lines are out of order")
        runner.teardown(cluster)


def worker_spans_merged(scratch: str) -> None:
    w = WORKLOADS["uv-parallel"]
    work = tempfile.mkdtemp(dir=scratch)
    runner = harness.Runner(w, 5, work, TINY[w.job])
    os.makedirs(os.path.join(work, "spans"))
    tracer = Tracer(os.path.join(work, "spans"))
    ids = register_timed_functions(tracer, ["uservisits.map", "uservisits.reduce"])
    out = runner.traced_job(tracer, {"map": ids["uservisits.map"],
                                     "reduce": ids["uservisits.reduce"], "combine": None})
    check(out is not None and runner.failed == 0, "uv-parallel: traced job correct")
    metrics, spans = out
    remote = {s["pid"] for s in spans if s["name"] == "executors.execute_task"}
    check(os.getpid() not in remote and len(remote) >= 1,
          f"uv-parallel: execute_task spans come from {len(remote)} forked worker(s)")
    check(any(s["name"] == "jobs.map" and s["pid"] in remote for s in spans),
          "uv-parallel: mapper spans from workers are merged")
    check(metrics["executors.execute_task.calls"] == metrics["master.dispatches.map"]
          + metrics["master.dispatches.reduce"], "uv-parallel: one execute_task per dispatch")
    check(not os.listdir(os.path.join(work, "spans")), "worker span files consumed")


def missing_entry_point_raises(scratch: str) -> None:
    import minimapred.tasks as tasks

    original, write_run = tasks.iter_run, tasks.write_run  # write_run is patched first
    del tasks.iter_run
    try:
        Installation(Tracer(tempfile.mkdtemp(dir=scratch)))
        raised = False
    except AttributeError:
        raised = True
    finally:
        tasks.iter_run = original
    check(raised, "tracing refuses an engine without one of its entry points")
    check(tasks.write_run is write_run,
          "a refused installation leaves no wrapper behind")


def fails_without_engine(scratch: str) -> None:
    bare = tempfile.mkdtemp(dir=scratch)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    proc = subprocess.run(
        command + ["--workload", "wc-combine", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "run.py exits non-zero without a result when src/ is missing")


def main() -> None:
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=base)
    try:
        # the scratch root stands in for a checkout: harness.run reads
        # BENCHMARK.json from it and writes spans under it
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        metric_names_and_units(scratch)
        gate_flags_corruption(scratch)
        worker_spans_merged(scratch)
        missing_entry_point_raises(scratch)
        fails_without_engine(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
