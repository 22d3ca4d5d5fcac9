"""The benchmark's tracer still fits the engine.

``perfbench/tracer.py`` wraps engine entry points by name (``write_run``,
``iter_run``, ``shuffle_fetch``, ``group_by_key``, store and cluster
methods, ...). A refactor that renames one, or stops calling it through
its module, would make the benchmark refuse to run or read 0 for a layer;
this test makes that fail here, in the ordinary test suite.
"""

import importlib.util
import os
import random

import minimapred.dfs as dfs
import minimapred.executors as executors
import minimapred.fault as fault
import minimapred.master as master
import minimapred.tasks as tasks
from minimapred import Cluster, ClusterConfig, JobSpec, RunOptions, run_job
from minimapred.jobs import uservisits_lines, wordcount_map

import oracles

TRACER_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry_points():
    owners = (dfs, executors, fault, master, tasks, dfs.Cluster, dfs.DiskStore,
              dfs.MemoryStore, master.Master)
    return {(owner, name): value for owner in owners
            for name, value in vars(owner).items() if callable(value)}


def _spilling_job_input():
    rng = random.Random(9)
    words = [f"w{i:02d}" for i in range(30)]
    return "".join(" ".join(rng.choices(words, k=6)) + "\n" for _ in range(120)).encode()


def _spilling_job_parts():
    """Wordcount without a combiner whose two map tasks spill several times."""
    data = _spilling_job_input()
    c = Cluster(ClusterConfig(num_nodes=3, chunk_size=2048, replication=2, seed=4))
    c.put_file("in", data)
    spec = JobSpec(job_id="wc", input_path="in", output_path="out",
                   mapper_id="wordcount.map", reducer_id="wordcount.reduce",
                   num_reducers=2)
    res = run_job(c, spec, RunOptions(executor="serial", spill_pairs=40))
    return [c.get_file(p) for p in res.report.parts]


def test_tracer_wraps_the_shuffle_path_and_restores_it(tmp_path):
    tracer_mod = _load_tracer()
    before = _entry_points()
    untraced = _spilling_job_parts()

    tracer = tracer_mod.Tracer(str(tmp_path))
    installation = tracer_mod.Installation(tracer)
    try:
        assert tasks.write_run is not before[(tasks, "write_run")]
        traced = _spilling_job_parts()
        spans, counters = tracer.collect()
    finally:
        installation.remove()

    assert traced == untraced
    names = {s["name"] for s in spans}
    for name in ("tasks.write_run", "tasks.shuffle_merge", "tasks.group_by_key"):
        assert name in names
    # every split read goes through the method the tracer wraps
    assert sum(s.get("bytes", 0) for s in spans
               if s["name"] == "dfs.read_split") == len(_spilling_job_input())
    # each emitted pair is encoded once: spills and final runs are the map
    # output, with no map-side merge writing them again
    emitted = sum(len(wordcount_map(offset, line))
                  for offset, line in oracles.records_with_offsets(_spilling_job_input()))
    assert emitted > 0
    assert sum(s.get("pairs", 0) for s in spans if s["name"] == "tasks.write_run") == emitted
    assert counters.get("tasks.spill.files", 0) > 0
    assert counters.get("tasks.iter_run.pairs", 0) > 0
    after = _entry_points()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def _malformed_uservisits_input():
    """uservisits rows where every 7th is malformed, cycling through the three
    kinds the mapper rejects; returns (data, malformed row count)."""
    bad = (b"10.0.0.1|two-fields\n", b"10.0.0.1|d|n/a|x\n", b"10.0.0.1|d|inf|x\n")
    rows = uservisits_lines(300, 5).splitlines(keepends=True)
    rows[::7] = [bad[i % 3] for i in range(len(rows[::7]))]
    return b"".join(rows), len(rows[::7])


def _uservisits_job(data, mapper_id, reducer_id):
    c = Cluster(ClusterConfig(num_nodes=3, chunk_size=4096, replication=2, seed=4))
    c.put_file("in", data)
    spec = JobSpec(job_id="uv", input_path="in", output_path="out",
                   mapper_id=mapper_id, reducer_id=reducer_id, num_reducers=2)
    report = run_job(c, spec, RunOptions(executor="serial")).report
    return [c.get_file(p) for p in report.parts], report.skipped_records


def test_traced_record_mapper_counts_skips_through_per_record(tmp_path):
    # the tracer registers record-only wrappers, so traced uservisits jobs run
    # their mapper through registry.per_record, as the traced uv-parallel does
    tracer_mod = _load_tracer()
    data, malformed = _malformed_uservisits_input()
    untraced, untraced_skipped = _uservisits_job(data, "uservisits.map", "uservisits.reduce")

    tracer = tracer_mod.Tracer(str(tmp_path))
    installation = tracer_mod.Installation(tracer)
    try:
        ids = tracer_mod.register_timed_functions(tracer, ["uservisits.map", "uservisits.reduce"])
        traced, skipped = _uservisits_job(data, ids["uservisits.map"], ids["uservisits.reduce"])
        spans, _ = tracer.collect()
    finally:
        installation.remove()

    assert malformed > 0
    assert traced == untraced
    assert skipped == untraced_skipped == malformed
    assert sum(s["skipped"] for s in spans if s["name"] == "jobs.map") == malformed
