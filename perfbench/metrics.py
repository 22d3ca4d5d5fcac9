"""Per-layer metrics of one traced job, computed from its merged spans.

Layers are the engine's modules. A span belongs to the layer its name
starts with; the benchmark's root span ``job`` (around ``run_job``) is the
master's. ``master.schedule`` and ``fault.recover`` are the schedule and
fault layers. ``executors.wait`` is the master blocking on worker results:
its self time is idle, reported as ``executors.master_wait_s`` and left
out of every layer's self time.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("dfs", "jobs", "tasks", "executors", "master", "schedule", "fault")


def layer_of(name: str) -> str:
    if name == "job":
        return "master"
    if name == "master.schedule":
        return "schedule"
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[str, float]:
    """span id -> busy time not covered by its child spans."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["dur"]
    return {s["id"]: s["dur"] - child[s["id"]] for s in spans}


def union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _phase_times(events, started: float, ended: float) -> tuple[float, float]:
    """Wall time the job spent mapping and reducing, from the master's
    timed event log. Recovery sends the job back to mapping when it
    re-executes completed maps."""
    spent = {"mapping": 0.0, "reducing": 0.0}
    phase, since = "mapping", started
    for event, at in zip(events, events.times):
        if event["event"] == "phase":
            new = event["phase"]
        elif event["event"] == "reexecute_completed_map":
            new = "mapping"
        else:
            continue
        if new != phase:
            if phase in spent:
                spent[phase] += at - since
            phase, since = new, at
    if phase in spent:
        spent[phase] += ended - since
    return spent["mapping"], spent["reducing"]


def job_metrics(spans, setup_spans, counters, master_info, result, job_span,
                input_size: int) -> dict[str, float]:
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def tot(name, key="dur"):
        return float(sum(s.get(key, 0) for s in by[name]))

    own = self_times(spans)

    def self_of(name):
        return float(sum(own[s["id"]] for s in by[name]))

    layer_self = defaultdict(float)
    for s in spans:
        if s["name"] != "executors.wait":
            layer_self[layer_of(s["name"])] += own[s["id"]]

    report = result.report
    events = master_info["events"]
    job_s = job_span["dur"]
    m: dict[str, float] = {}

    # dfs
    m["dfs.self_s"] = layer_self["dfs"]
    m["dfs.read_split.s"] = tot("dfs.read_split")
    m["dfs.read_split.records"] = tot("dfs.read_split", "items")
    m["dfs.read_split.bytes"] = tot("dfs.read_split", "bytes")
    m["dfs.read_chunk.calls"] = float(len(by["dfs.read_chunk"]))
    m["dfs.read_chunk.bytes"] = tot("dfs.read_chunk", "bytes")
    m["dfs.read_amplification"] = m["dfs.read_chunk.bytes"] / input_size
    m["dfs.meta_lookups"] = tot("dfs.meta", "calls")
    m["dfs.local.bytes_written"] = tot("dfs.local_write", "bytes")
    m["dfs.local.bytes_read"] = tot("dfs.local_read", "bytes")
    m["dfs.write_output.s"] = tot("dfs.write_output")
    writes = {s["id"] for s in by["dfs.write_output"]}
    m["dfs.write_output.bytes"] = float(sum(
        s["bytes"] for s in by["dfs.put_file"] if s["parent"] in writes))
    m["dfs.put_file.s"] = float(sum(
        s["dur"] for s in setup_spans if s["name"] == "dfs.put_file"))

    # jobs
    m["jobs.self_s"] = layer_self["jobs"]
    m["jobs.map.s"] = tot("jobs.map")
    m["jobs.map.calls"] = tot("jobs.map", "calls")
    m["jobs.map.pairs_out"] = tot("jobs.map", "pairs_out")
    m["jobs.map.skipped"] = tot("jobs.map", "skipped")
    m["jobs.combine.s"] = tot("jobs.combine")
    m["jobs.combine.groups"] = tot("jobs.combine", "calls")
    m["jobs.reduce.s"] = tot("jobs.reduce")
    m["jobs.reduce.groups"] = tot("jobs.reduce", "calls")
    m["jobs.reduce.values_in"] = tot("jobs.reduce", "values_in")

    # tasks
    groups = tot("tasks.group_by_key", "items")
    m["tasks.self_s"] = layer_self["tasks"]
    m["tasks.map_task.s"] = tot("tasks.run_map_task")
    m["tasks.map_task.self_s"] = self_of("tasks.run_map_task")
    m["tasks.write_run.s"] = tot("tasks.write_run")
    m["tasks.write_run.pairs"] = tot("tasks.write_run", "pairs")
    m["tasks.spill.files"] = float(counters.get("tasks.spill.files", 0))
    m["tasks.iter_run.pairs"] = float(counters.get("tasks.iter_run.pairs", 0))
    m["tasks.reduce_task.s"] = tot("tasks.run_reduce_task")
    m["tasks.shuffle_merge.s"] = tot("tasks.shuffle_fetch") + tot("tasks.shuffle_merge")
    m["tasks.shuffle.pairs"] = tot("tasks.shuffle_merge", "items")
    m["tasks.group_by_key.self_s"] = self_of("tasks.group_by_key")
    m["tasks.shuffle.pairs_per_group"] = m["tasks.shuffle.pairs"] / groups if groups else 0.0

    # executors
    execs = by["executors.execute_task"]
    remote = [s for s in execs if s.get("remote")]
    m["executors.self_s"] = layer_self["executors"]
    m["executors.execute_task.s"] = tot("executors.execute_task")
    m["executors.execute_task.calls"] = float(len(execs))
    m["executors.queue_wait_s"] = tot("executors.execute_task", "queue_wait")
    m["executors.master_wait_s"] = self_of("executors.wait")

    # master and schedule
    map_s, reduce_s = _phase_times(events, job_span["start"], job_span["end"])
    m["master.self_s"] = layer_self["master"]
    m["master.ticks"] = float(master_info["ticks"])
    m["master.dispatches.map"] = float(report.map_attempts)
    m["master.dispatches.reduce"] = float(report.reduce_attempts)
    m["master.stale_results"] = float(sum(e["event"] == "stale_result" for e in events))
    m["master.map_phase_s"] = map_s
    m["master.reduce_phase_s"] = reduce_s
    map_dispatches = tot("master.schedule", "map_dispatches")
    m["schedule.calls"] = float(len(by["master.schedule"]))
    m["schedule.s"] = tot("master.schedule")
    m["schedule.locality_ratio"] = (
        tot("master.schedule", "local_dispatches") / map_dispatches if map_dispatches else 0.0)

    # fault
    tasks = result.state.map_tasks + result.state.reduce_tasks
    final_attempt = {t.task_id: t.attempt for t in tasks}
    dispatches = report.map_attempts + report.reduce_attempts
    m["fault.recover.calls"] = float(len(by["fault.recover"]))
    m["fault.recover.s"] = tot("fault.recover")
    m["fault.reexecuted_maps"] = tot("fault.recover", "reexecuted_maps")
    m["fault.restarted_reduces"] = tot("fault.recover", "restarted_reduces")
    m["fault.wasted_task_s"] = float(sum(
        s["dur"] for s in execs if s["attempt"] != final_attempt[s["task_id"]]))
    m["fault.useful_attempt_ratio"] = len(tasks) / dispatches

    # layer-sum check: on serial workloads the layers' self times add up to
    # job_s; worker processes add the time two tasks ran at once.
    overlap = sum(s["dur"] for s in remote) - union_length(
        [(s["start"], s["end"]) for s in remote])
    m["trace.job_s"] = job_s
    m["trace.layer_sum_ratio"] = sum(layer_self[k] for k in LAYERS) / (job_s + overlap)
    return m
