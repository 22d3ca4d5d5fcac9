"""Failure injection, node death and recovery semantics."""

import functools
import os
import sys
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from minimapred import (
    Cluster,
    ClusterConfig,
    FailureEvent,
    FailurePlan,
    InputSplit,
    InvalidPlan,
    JobFailed,
    JobSpec,
    JobState,
    Phase,
    RunOptions,
    ShuffleSourceLost,
    TaskDescriptor,
    TaskState,
    recover,
    register,
    run_job,
    submit_job,
)
import minimapred.executors as executors
from minimapred.master import MasterCore
from minimapred.jobtypes import SPILL_PAIRS, TaskResult
from minimapred.tasks import run_map_task, shuffle_fetch
from minimapred.jobs import job_spec, uservisits_lines, wordcount_map
from minimapred.registry import per_record

import oracles
from test_engine import random_tokens, wc_spec


# ---------------------------------------------------------------------------
# plans


def test_parse_fail_specs():
    plan = FailurePlan.parse(["1:5", "3:after:map-2"])
    assert plan.events == (
        FailureEvent(node_id=1, tick=5),
        FailureEvent(node_id=3, after_task="map-2"),
    )


@pytest.mark.parametrize("spec", ["x:5", "1", "1:after", "1:later:map-2", "1:2:3:4", "1:-7"])
def test_parse_rejects_malformed_specs(spec):
    with pytest.raises(InvalidPlan):
        FailurePlan.parse([spec])


def test_event_needs_exactly_one_trigger():
    with pytest.raises(InvalidPlan):
        FailureEvent(node_id=1)
    with pytest.raises(InvalidPlan):
        FailureEvent(node_id=1, tick=2, after_task="map-0")


@pytest.mark.parametrize("fields", [
    dict(node_id=True, tick=1), dict(node_id=1.5, tick=0), dict(node_id="1", after_task="map-0"),
    dict(node_id=1, tick=True), dict(node_id=1, tick=0.0),
], ids=["bool-node", "float-node", "str-node", "bool-tick", "float-tick"])
def test_event_of_wrong_types_rejected(fields):
    # True == 1, so a bool node id would kill node 1 on a memory store
    with pytest.raises(InvalidPlan):
        FailureEvent(**fields)


def test_rejoining_nodes_not_supported():
    with pytest.raises(TypeError):
        FailureEvent(node_id=1, tick=2, permanent=False)


def test_validate_node_range_and_duplicates():
    FailurePlan.parse(["1:5"]).validate(4)
    with pytest.raises(InvalidPlan):
        FailurePlan.parse(["9:5"]).validate(4)
    with pytest.raises(InvalidPlan):
        FailurePlan.parse(["1:5", "1:after:map-0"]).validate(4)


def test_plan_naming_a_task_the_job_lacks_is_rejected_before_it_runs(tmp_path):
    c = Cluster.open_disk(str(tmp_path / "store"),
                          ClusterConfig(num_nodes=4, chunk_size=512, replication=2, seed=3))
    c.put_file("in", random_tokens(31, n=300))
    with pytest.raises(InvalidPlan) as exc:
        run_job(c, wc_spec(), RunOptions(executor="serial"),
                FailurePlan.parse(["1:after:map-99", "2:after:mpa-1"]))
    assert "'map-99'" in str(exc.value) and "'mpa-1'" in str(exc.value)
    assert c.live_nodes() == [0, 1, 2, 3]
    assert not any(os.path.exists(os.path.join(c.store.root, f"node{n}", "local", "runs"))
                   for n in range(4))
    # a tick past the job's end is legal and never fires
    res = run_job(c, wc_spec(), RunOptions(executor="serial"), FailurePlan.parse(["1:999"]))
    assert res.report.phase == "done"
    assert c.live_nodes() == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# recover() rules


def _state_with(phase=Phase.REDUCING):
    split = InputSplit("fid", 0, 0, 10, (0, 1))
    maps = [
        TaskDescriptor("map-0", "map", split, TaskState.COMPLETED, assigned_node=2,
                       result=TaskResult("map-0", 0, 2, runs=[("r0",)])),
        TaskDescriptor("map-1", "map", split, TaskState.COMPLETED, assigned_node=1,
                       result=TaskResult("map-1", 0, 1, runs=[("r1",)])),
    ]
    reduces = [
        TaskDescriptor("reduce-0", "reduce", 0, TaskState.COMPLETED,
                       assigned_node=1),
        TaskDescriptor("reduce-1", "reduce", 1, TaskState.RUNNING,
                       assigned_node=3),
    ]
    spec = JobSpec(job_id="j", input_path="i", output_path="o",
                   mapper_id="wordcount.map", reducer_id="wordcount.reduce")
    return JobState(spec, maps, reduces, phase)


def test_completed_map_reverts_completed_reduce_survives():
    # node 1 held both a completed map's runs and a completed reduce
    state = _state_with()
    summary = recover(state, dead_node=1)
    assert summary.reverted_completed_maps == ["map-1"]
    map1 = state.task("map-1")
    assert map1.state is TaskState.PENDING
    assert map1.attempt == 1
    assert map1.result is None
    assert state.task("reduce-0").state is TaskState.COMPLETED
    assert state.task("reduce-0").attempt == 0
    # lost map work while reducing: running reducers restart their shuffle;
    # the phase is the master's to change (see the whole-job test below)
    assert state.phase is Phase.REDUCING
    assert state.task("reduce-1").state is TaskState.PENDING


def test_running_task_on_dead_node_only():
    state = _state_with(phase=Phase.MAPPING)
    state.task("map-1").state = TaskState.RUNNING
    state.task("map-1").result = None
    summary = recover(state, dead_node=1)
    assert state.task("map-1").state is TaskState.PENDING
    assert summary.reverted_completed_maps == []
    assert state.task("map-0").state is TaskState.COMPLETED
    assert state.task("map-1").attempt == 1


def test_unrelated_node_death_changes_nothing():
    state = _state_with()
    before = [replace(t) for t in state.map_tasks + state.reduce_tasks]
    # node 3 runs reduce-1; no completed map runs live there
    summary = recover(state, dead_node=0)
    assert state.map_tasks + state.reduce_tasks == before
    assert summary.reverted_completed_maps == []
    assert state.phase is Phase.REDUCING


def test_unknown_task_id_raises_key_error():
    with pytest.raises(KeyError):
        _state_with().task("map-99")


def test_recover_attempt_cap_raises():
    state = _state_with()
    state.task("map-1").attempt = 4
    with pytest.raises(JobFailed):
        recover(state, dead_node=1)


_task_rows = st.lists(
    st.tuples(st.sampled_from(list(TaskState)), st.integers(0, 3), st.integers(0, 4)),
    min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(map_rows=_task_rows, reduce_rows=_task_rows,
       phase=st.sampled_from([Phase.MAPPING, Phase.REDUCING]), dead=st.integers(0, 3))
def test_recover_follows_its_rule_on_any_task_table(map_rows, reduce_rows, phase, dead):
    """Rows are (state, node, attempt); a pending task has no node and a
    completed one holds its accepted result."""
    split = InputSplit("fid", 0, 0, 10, (0, 1))

    def task(kind, i, state, node, attempt):
        task_id = f"{kind}-{i}"
        result = None
        if state is TaskState.COMPLETED:
            runs = [(f"runs/j/{task_id}.{attempt}.0",)] if kind == "map" else None
            result = TaskResult(task_id, attempt, node, runs=runs)
        return TaskDescriptor(task_id, kind, split if kind == "map" else i, state, attempt,
                              None if state is TaskState.PENDING else node, result)

    maps = [task("map", i, *r) for i, r in enumerate(map_rows)]
    reduces = [task("reduce", i, *r) for i, r in enumerate(reduce_rows)]
    state = JobState(wc_spec(), maps, reduces, phase)
    before = {t.task_id: replace(t) for t in maps + reduces}

    # the rule, from the docstring
    on_dead = [t for t in maps + reduces if t.assigned_node == dead]
    running = [t.task_id for t in on_dead if t.state is TaskState.RUNNING]
    completed_maps = [t.task_id for t in on_dead
                      if t.state is TaskState.COMPLETED and t.kind == "map"]
    restarted = [t.task_id for t in reduces
                 if t.state is TaskState.RUNNING and t.assigned_node != dead
                 ] if completed_maps and phase is Phase.REDUCING else []
    reverted = running + completed_maps + restarted

    if any(before[t].attempt >= 4 for t in reverted):
        with pytest.raises(JobFailed, match="exceeded 4 attempts"):
            recover(state, dead)
        return
    summary = recover(state, dead)
    assert summary.reverted_completed_maps == completed_maps
    assert summary.restarted_reduces == restarted
    assert state.phase is phase
    for t in maps + reduces:
        old = before[t.task_id]
        if t.task_id in reverted:
            assert (t.state, t.attempt, t.assigned_node, t.result) == (
                TaskState.PENDING, old.attempt + 1, None, None)
        else:
            assert t == old


def _report_from(state, completed):
    # a core that never ran: its report reads only its state and events
    core = MasterCore(state.spec, [], FailurePlan(), [], set(), [])
    core.state = state
    core.events = [{"tick": 0, "event": "complete", "task": t} for t in completed]
    return core.report(0.0)


def test_report_counts_each_thrown_away_reduce_completion():
    # a completed reduce that runs again is against the recovery rules;
    # the report counts each accepted completion whose part does not stand
    state = _state_with()
    assert _report_from(state, ["reduce-0"]).re_executed_completed_reduces == 0
    assert _report_from(state, ["reduce-0", "reduce-0"]).re_executed_completed_reduces == 1
    state.task("reduce-1").state = TaskState.PENDING
    assert _report_from(state, ["reduce-0", "reduce-1", "reduce-0"]
                        ).re_executed_completed_reduces == 2


# ---------------------------------------------------------------------------
# inject semantics at the storage/shuffle level


def test_dead_node_runs_unreadable_then_resolved():
    c = Cluster(ClusterConfig(num_nodes=3, chunk_size=1024, replication=2, seed=5))
    meta = c.put_file("in", b"alpha beta alpha\n")
    [split] = c.make_splits(meta)
    runs, _ = run_map_task(c, "j", "map-3", 0, 0, split, per_record(wordcount_map), None, 1)
    sources = [(3, "map-3", 0, runs[0])]
    assert list(shuffle_fetch(c, sources)) == [
        (b"alpha", [b"1", b"1"]), (b"beta", [b"1"])]

    c.mark_node_dead(0)
    with pytest.raises(ShuffleSourceLost) as exc:
        shuffle_fetch(c, sources)
    assert exc.value.map_task_id == "map-3"

    # re-execution on a live node resolves the loss exactly once
    reruns, _ = run_map_task(c, "j", "map-3", 1, 1, split, per_record(wordcount_map), None, 1)
    resolved = [(3, "map-3", 1, reruns[0])]
    assert list(shuffle_fetch(c, resolved)) == [
        (b"alpha", [b"1", b"1"]), (b"beta", [b"1"])]


def test_missing_spill_run_loses_its_map_source():
    c = Cluster(ClusterConfig(num_nodes=3, chunk_size=1024, replication=2, seed=5))
    meta = c.put_file("in", b"alpha beta alpha\ngamma alpha\nbeta delta\n")
    [split] = c.make_splits(meta)
    runs, _ = run_map_task(c, "j", "map-3", 0, 0, split, per_record(wordcount_map), None, 1,
                           spill_pairs=2)
    node, names = 0, runs[0]
    assert names == tuple(f"runs/j/map-3.0.0.spill{i}" for i in range(3)) + (
        "runs/j/map-3.0.0",)
    sources = [(3, "map-3", node, names)]
    # the spill check follows each key group: alpha (3), beta (2), gamma+delta
    assert [(k, len(vs)) for k, vs in shuffle_fetch(c, sources)] == [
        (b"alpha", 3), (b"beta", 2), (b"delta", 1), (b"gamma", 1)]

    c.store.delete_local(node, names[1])
    with pytest.raises(ShuffleSourceLost) as exc:
        shuffle_fetch(c, sources)
    assert exc.value.map_task_id == "map-3"


def test_job_reexecutes_a_map_whose_spill_run_went_missing(monkeypatch):
    data = random_tokens(31, n=300)
    options = RunOptions(executor="serial", spill_pairs=3)
    c0, baseline = _run(data=data, options=options)

    lost = []
    real = executors.run_map_task

    def losing_a_spill(cluster, job_id, task_id, attempt, node, *args):
        runs, skipped = real(cluster, job_id, task_id, attempt, node, *args)
        if task_id == "map-1" and attempt == 0:
            lost.append(runs[0][0])
            cluster.store.delete_local(node, runs[0][0])
        return runs, skipped

    monkeypatch.setattr(executors, "run_map_task", losing_a_spill)
    c1, res = _run(data=data, options=options)
    assert lost == ["runs/wc/map-1.0.0.spill0"]
    assert [c1.get_file(p) for p in res.report.parts] == [
        c0.get_file(p) for p in baseline.report.parts]
    assert [(e["reducer"], e["map"]) for e in res.events
            if e["event"] == "shuffle_source_lost"] == [("reduce-0", "map-1")]
    assert res.report.re_executed_completed_maps == 1
    assert [e["task"] for e in res.events
            if e["event"] == "reexecute_completed_map"] == ["map-1"]
    assert res.state.task("map-1").attempt == 1


# ---------------------------------------------------------------------------
# whole-job fault tolerance


def _fresh_cluster(seed=11):
    return Cluster(ClusterConfig(num_nodes=4, chunk_size=64, replication=2,
                                 seed=seed))


def _run(plan=None, data=None, options=None):
    c = _fresh_cluster()
    c.put_file("in", data if data is not None else random_tokens(31, n=300))
    res = run_job(c, wc_spec(), options or RunOptions(executor="serial"), plan)
    return c, res


def test_empty_plan_identical_to_no_fault():
    c1, r1 = _run()
    c2, r2 = _run(plan=FailurePlan(()))
    assert [c1.get_file(p) for p in r1.report.parts] == [
        c2.get_file(p) for p in r2.report.parts]
    assert r2.report.map_attempts == r2.report.map_tasks
    assert r2.report.reduce_attempts == r2.report.reduce_tasks
    assert r2.report.re_executed_completed_maps == 0
    assert all(t["attempt"] == 0 for t in r2.report.tasks)


def test_after_task_kill_reexecutes_completed_map():
    data = random_tokens(31, n=300)
    c0, baseline = _run(data=data)
    node_of_map2 = next(
        e["node"] for e in baseline.events
        if e["event"] == "complete" and e["task"] == "map-2"
    )
    plan = FailurePlan((FailureEvent(node_id=node_of_map2, after_task="map-2"),))
    c1, res = _run(plan=plan, data=data)
    assert [c1.get_file(p) for p in res.report.parts] == [
        c0.get_file(p) for p in baseline.report.parts]
    assert res.report.re_executed_completed_maps >= 1
    assert res.report.re_executed_completed_reduces == 0
    assert any(e["event"] == "reexecute_completed_map" and e["task"] == "map-2"
               for e in res.events)
    # the re-run landed on a live node
    final_node = res.state.task("map-2").assigned_node
    assert final_node != node_of_map2
    # map-2 completes twice, but its kill fires once
    assert [e["task"] for e in res.events if e["event"] == "complete"].count("map-2") == 2
    assert [e["node"] for e in res.events if e["event"] == "node_dead"] == [node_of_map2]


def test_failover_event_log_golden():
    """The whole serial event log of a 3-map job whose nodes 1 and 3 die
    while it reduces: 1 after reduce-0 completes, 3 at tick 4. Node 3's
    kill is due at every tick from 4 on and fires once."""
    _, res = _run(plan=FailurePlan.parse(["1:after:reduce-0", "3:4"]),
                  data=random_tokens(31, n=20))
    log = [" ".join(f"{v}" if k in ("tick", "event") else f"{k}={v}" for k, v in e.items())
           for e in res.events]
    assert log == [
        "0 dispatch task=map-0 attempt=0 node=1",
        "0 dispatch task=map-1 attempt=0 node=2",
        "0 dispatch task=map-2 attempt=0 node=3",
        "1 complete task=map-0 attempt=0 node=1",
        "1 complete task=map-1 attempt=0 node=2",
        "1 complete task=map-2 attempt=0 node=3",
        "1 phase phase=reducing",
        "1 dispatch task=reduce-0 attempt=0 node=0",
        "1 dispatch task=reduce-1 attempt=0 node=1",
        "2 complete task=reduce-0 attempt=0 node=0",
        "2 node_dead node=1",
        "2 reexecute_completed_map task=map-0",
        "2 stale_result task=reduce-1 attempt=0 node=1",
        "2 phase phase=mapping",
        "2 dispatch task=map-0 attempt=1 node=2",
        "3 complete task=map-0 attempt=1 node=2",
        "3 phase phase=reducing",
        "3 dispatch task=reduce-1 attempt=1 node=0",
        "4 node_dead node=3",
        "4 reexecute_completed_map task=map-2",
        "4 restart_reduce task=reduce-1",
        "4 shuffle_source_lost reducer=reduce-1 map=map-2",
        "4 stale_result task=reduce-1 attempt=1 node=0",
        "4 phase phase=mapping",
        "4 dispatch task=map-2 attempt=1 node=0",
        "5 complete task=map-2 attempt=1 node=0",
        "5 phase phase=reducing",
        "5 dispatch task=reduce-1 attempt=2 node=0",
        "6 complete task=reduce-1 attempt=2 node=0",
        "6 phase phase=done",
    ]
    assert (res.report.map_attempts, res.report.reduce_attempts) == (5, 4)
    assert res.report.re_executed_completed_maps == 2


def test_map_loss_while_reducing_logs_the_return_to_mapping():
    _, res = _run(plan=FailurePlan.parse(["2:after:reduce-0"]))
    assert res.state.phase is Phase.DONE
    phases = [e["phase"] for e in res.events if e["event"] == "phase"]
    assert phases == ["reducing", "mapping", "reducing", "done"]
    dead = next(i for i, e in enumerate(res.events) if e["event"] == "node_dead")
    back = next(i for i, e in enumerate(res.events)
                if e["event"] == "phase" and e["phase"] == "mapping" and i > dead)
    assert any(e["event"] == "reexecute_completed_map"
               for e in res.events[dead:back])


def test_restarted_reduce_rewrite_leaves_only_listed_chunks_on_disk(tmp_path):
    c = Cluster.open_disk(str(tmp_path / "s"), _fresh_cluster().config)
    c.put_file("in", random_tokens(31, n=300))
    res = run_job(c, wc_spec(), RunOptions(executor="serial"),
                  FailurePlan.parse(["2:after:reduce-0"]))
    assert res.report.phase == "done"
    assert any(e["event"] == "restart_reduce" for e in res.events)
    assert oracles.store_problems(c) == []
    # the job's cleanup also reaches the runs left on the dead node
    assert oracles.local_leftovers(c) == []


def test_tick_kill_during_reduce_phase_shuffle_lost_observed():
    data = random_tokens(31, n=300)
    c0, baseline = _run(data=data)
    # serial mode repeats the baseline timeline until the kill: reducers
    # dispatched at tick T execute during round T+1, after its injections,
    # so a kill at T+1 is observed by the already-queued reduce attempts
    reduce_tick = min(e["tick"] for e in baseline.events
                      if e["event"] == "dispatch" and e["task"].startswith("reduce-"))
    node = next(e["node"] for e in baseline.events
                if e["event"] == "complete" and e["task"].startswith("map-"))
    plan = FailurePlan((FailureEvent(node_id=node, tick=reduce_tick + 1),))
    c1, res = _run(plan=plan, data=data)
    assert [c1.get_file(p) for p in res.report.parts] == [
        c0.get_file(p) for p in baseline.report.parts]
    assert res.report.re_executed_completed_maps >= 1
    assert any(e["event"] == "shuffle_source_lost" for e in res.events)
    assert res.report.phase == "done"


@pytest.mark.parametrize("specs", [["0:1"], ["3:3"], ["1:2", "3:after:map-1"]])
def test_output_equivalence_under_fault_plans(specs):
    data = random_tokens(77, n=500)
    c0, baseline = _run(data=data)
    c1, res = _run(plan=FailurePlan.parse(specs), data=data)
    assert [c1.get_file(p) for p in res.report.parts] == [
        c0.get_file(p) for p in baseline.report.parts]
    assert res.report.phase == "done"


_PLAN_CONFIG = ClusterConfig(num_nodes=4, chunk_size=256, replication=2, seed=11)
_PLAN_INPUTS = {"wordcount": random_tokens(31, n=120), "uservisits": uservisits_lines(10, 3)}


@functools.cache
def _failure_free_parts(job):
    c = Cluster(_PLAN_CONFIG)
    c.put_file("in", _PLAN_INPUTS[job])
    res = run_job(c, job_spec(job, "j", "in", "out", 2), RunOptions(executor="serial"))
    return [c.get_file(p) for p in res.report.parts]


# a kill's trigger is ("tick", t) or ("after", i), i indexing the job's task ids
_triggers = st.lists(st.one_of(st.tuples(st.just("tick"), st.integers(0, 8)),
                               st.tuples(st.just("after"), st.integers(0, 9))),
                     min_size=1, max_size=2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(job=st.sampled_from(sorted(_PLAN_INPUTS)), kind=st.sampled_from(["memory", "disk"]),
       spill_pairs=st.sampled_from([1, SPILL_PAIRS]), nodes=st.permutations(range(4)),
       triggers=_triggers)
def test_serial_job_survives_any_plan_that_keeps_a_replica_of_every_chunk(
        job, kind, spill_pairs, nodes, triggers):
    """Drawn plans kill one or two distinct nodes. One that leaves a live
    replica of every input chunk must end done with the failure-free
    parts and a clean store; any other may instead raise JobFailed."""
    kills = list(zip(nodes, triggers))
    with tempfile.TemporaryDirectory() as root:
        c = Cluster(_PLAN_CONFIG) if kind == "memory" else Cluster.open_disk(root, _PLAN_CONFIG)
        meta = c.put_file("in", _PLAN_INPUTS[job])
        ids = [f"map-{i}" for i in range(len(meta.chunks))] + ["reduce-0", "reduce-1"]
        plan = FailurePlan(tuple(
            FailureEvent(node, tick=n) if how == "tick"
            else FailureEvent(node, after_task=ids[n % len(ids)])
            for node, (how, n) in kills))
        killed = {node for node, _ in kills}
        survivable = all(set(ch.replicas) - killed for ch in meta.chunks)
        try:
            res = run_job(c, job_spec(job, "j", "in", "out", 2),
                          RunOptions(executor="serial", spill_pairs=spill_pairs), plan)
        except JobFailed:
            assert not survivable
            return
        assert res.report.phase == "done"
        assert [c.get_file(p) for p in res.report.parts] == _failure_free_parts(job)
        assert oracles.store_problems(c) == []
        assert oracles.local_leftovers(c) == []


def test_completed_reduce_never_reverts():
    data = random_tokens(5, n=400)
    # replicas are placed on consecutive nodes, so multi-node plans kill
    # opposite nodes to keep one live replica of every chunk; only the last
    # plan kills a node after a reduce has completed
    plans = [["0:1"], ["2:4"], ["1:2", "3:after:map-0"], ["2:after:reduce-0"]]
    for specs in plans:
        _, res = _run(plan=FailurePlan.parse(specs), data=data)
        assert res.report.re_executed_completed_reduces == 0
        completed_at = {}
        for i, e in enumerate(res.events):
            if e["event"] == "complete" and e["task"].startswith("reduce-"):
                completed_at.setdefault(e["task"], i)
        for i, e in enumerate(res.events):
            if e["event"] == "dispatch" and e["task"] in completed_at:
                assert i < completed_at[e["task"]], (
                    f"{e['task']} dispatched after completion")
    deaths = [i for i, e in enumerate(res.events) if e["event"] == "node_dead"]
    assert completed_at["reduce-0"] < deaths[0]


def test_losing_all_replicas_fails_job():
    c = Cluster(ClusterConfig(num_nodes=2, chunk_size=64, replication=1, seed=11))
    c.put_file("in", random_tokens(1, n=200))
    only = {node for m in [c.meta("in")] for ch in m.chunks for node in ch.replicas}
    plan = FailurePlan.parse([f"{node}:0" for node in only])
    if len(only) < 2:
        plan = FailurePlan.parse([f"{only.pop()}:0"])
    with pytest.raises(JobFailed):
        submit_job(c, wc_spec(), RunOptions(executor="serial"), plan)


def test_all_workers_dead_fails_job():
    c = _fresh_cluster()
    c.put_file("in", random_tokens(1, n=100))
    plan = FailurePlan.parse(["0:0", "1:0", "2:0", "3:0"])
    with pytest.raises(JobFailed):
        submit_job(c, wc_spec(), RunOptions(executor="serial"), plan)


def test_max_attempts_exhaustion_fails_job():
    def broken_map(offset, line):
        raise RuntimeError("boom")

    register("broken.map", broken_map)
    c = _fresh_cluster()
    c.put_file("in", b"a b c\n")
    spec = JobSpec(job_id="j", input_path="in", output_path="o",
                   mapper_id="broken.map", reducer_id="wordcount.reduce")
    with pytest.raises(JobFailed) as exc:
        submit_job(c, spec, RunOptions(executor="serial"))
    assert "attempts" in str(exc.value)
    assert exc.value.report is not None
    assert exc.value.report.phase == "failed"


def _exiting_map(offset, line):
    os._exit(3)  # the worker process dies; the pool breaks under the master


# registered at import time so that pool worker processes can resolve it
register("exiting.map", _exiting_map)


def test_worker_process_death_fails_job_as_executor_failure(tmp_path):
    c = Cluster.open_disk(str(tmp_path / "store"),
                          ClusterConfig(num_nodes=2, chunk_size=64, replication=2, seed=3))
    c.put_file("in", random_tokens(5, n=60))
    spec = replace(wc_spec(), mapper_id="exiting.map")
    with pytest.raises(JobFailed) as exc:
        submit_job(c, spec, RunOptions(executor="processes", workers=2))
    assert "executor failure" in str(exc.value)
    assert "BrokenProcessPool" in str(exc.value)
    assert exc.value.report.phase == "failed"


@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_node_dead_in_store_before_the_job_gets_no_work(executor):
    data = random_tokens(31, n=300)
    c0, baseline = _run(data=data)
    c1 = _fresh_cluster()
    c1.put_file("in", data)
    c1.mark_node_dead(3)  # an earlier job on this store killed node 3
    res = run_job(c1, wc_spec(), RunOptions(executor=executor),
                  FailurePlan.parse(["3:1"]))
    assert [e for e in res.events if e["event"] == "dispatch" and e["node"] == 3] == []
    assert [e for e in res.events if e["event"] == "node_dead"] == []
    assert res.report.phase == "done"
    assert [c1.get_file(p) for p in res.report.parts] == [
        c0.get_file(p) for p in baseline.report.parts]


def test_workers_are_the_first_live_nodes():
    # node 0 died in an earlier job: the workers are the live nodes after it
    c = _fresh_cluster()
    c.put_file("in", random_tokens(31, n=300))
    c.mark_node_dead(0)
    for workers, nodes in [(1, {1}), (2, {1, 2})]:
        res = run_job(c, wc_spec(), RunOptions(executor="serial", workers=workers))
        assert res.report.phase == "done"
        assert {e["node"] for e in res.events if e["event"] == "dispatch"} == nodes


def test_master_reads_each_dead_marker_once_per_job(monkeypatch):
    import minimapred.dfs as dfs

    c = _fresh_cluster()
    c.put_file("in", random_tokens(31, n=300))
    is_dead, calls = c.store.is_dead, []

    def counted(node):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == dfs.__file__:
            frame = frame.f_back
        calls.append((os.path.basename(frame.f_code.co_filename), node))
        return is_dead(node)

    monkeypatch.setattr(c.store, "is_dead", counted)
    res = run_job(c, wc_spec(), RunOptions(executor="serial"), FailurePlan.parse(["2:1"]))
    assert res.report.phase == "done"
    assert res.events[-1]["tick"] >= 3  # several scheduling rounds
    assert [node for caller, node in calls if caller == "master.py"] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# the master's rules alone: no cluster, no store, no executor


def _core(plan):
    """A core over three hand-made splits on workers 0-2; map-i's replicas
    are nodes i+1 and i+2 (mod 3)."""
    splits = [InputSplit("f", i, 10 * i, 10 * i + 10, ((i + 1) % 3, (i + 2) % 3))
              for i in range(3)]
    spec = JobSpec(job_id="j", input_path="in", output_path="out",
                   mapper_id="wordcount.map", reducer_id="wordcount.reduce",
                   num_reducers=2)
    return MasterCore(spec, splits, FailurePlan.parse(plan), [0, 1, 2], set(), [])


def _log(core, start=0):
    return [" ".join(f"{v}" if k in ("tick", "event") else f"{k}={v}" for k, v in e.items())
            for e in core.events[start:]]


def _map_done(task_id, attempt, node):
    return TaskResult(task_id, attempt, node, runs=[(f"{task_id}.r0",), (f"{task_id}.r1",)])


def test_core_after_task_kill_while_mapping():
    core = _core(["1:after:map-0"])
    assert core.fire() == []
    assert core.dispatch() == [("map-0", 0, 1), ("map-1", 0, 2), ("map-2", 0, 0)]
    # map-0's completion kills its own node, which held its runs
    assert core.step([_map_done("map-0", 0, 1)]) == [1]
    assert core.dead == {1}
    assert core.dispatch() == []  # nodes 0 and 2 are busy, node 1 is dead
    assert core.step([_map_done("map-1", 0, 2), _map_done("map-2", 0, 0)]) == []
    core.tick += 1
    assert core.fire() == []
    assert core.dispatch() == [("map-0", 1, 2)]
    assert _log(core) == [
        "0 dispatch task=map-0 attempt=0 node=1",
        "0 dispatch task=map-1 attempt=0 node=2",
        "0 dispatch task=map-2 attempt=0 node=0",
        "0 complete task=map-0 attempt=0 node=1",
        "0 node_dead node=1",
        "0 reexecute_completed_map task=map-0",
        "0 complete task=map-1 attempt=0 node=2",
        "0 complete task=map-2 attempt=0 node=0",
        "1 dispatch task=map-0 attempt=1 node=2",
    ]
    assert core.state.phase is Phase.MAPPING


def test_core_reexecutes_the_map_a_reducer_lost():
    core = _core([])
    core.dispatch()
    core.step([_map_done("map-0", 0, 1), _map_done("map-1", 0, 2), _map_done("map-2", 0, 0)])
    core.tick += 1
    assert core.dispatch() == [("reduce-0", 0, 0), ("reduce-1", 0, 1)]
    start = len(core.events)
    lost = TaskResult("reduce-1", 0, 1, shuffle_lost="map-1",
                      error="ShuffleSourceLost: map-1")
    assert core.step([TaskResult("reduce-0", 0, 0), lost]) == []
    assert _log(core, start) == [
        "1 complete task=reduce-0 attempt=0 node=0",
        "1 shuffle_source_lost reducer=reduce-1 map=map-1",
        "1 reexecute_completed_map task=map-1",
        "1 phase phase=mapping",
    ]
    assert (core.state.task("reduce-1").state, core.state.task("reduce-1").attempt) == (
        TaskState.PENDING, 1)
    core.tick += 1
    assert core.dispatch() == [("map-1", 1, 2)]
    core.step([_map_done("map-1", 1, 2)])
    assert core.dispatch() == [("reduce-1", 1, 0)]
    assert core.dead == set()


def test_core_fails_when_no_live_worker_is_left():
    core = _core(["0:0", "1:0", "2:0"])
    assert core.fire() == [0, 1, 2]
    with pytest.raises(JobFailed, match="no live workers"):
        core.dispatch()
