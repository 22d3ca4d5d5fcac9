"""Engine core: partitioning, scheduling, map/shuffle/reduce, job runs."""

import io
import itertools
import os
import random
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from minimapred import (
    Cluster,
    ClusterConfig,
    InputSplit,
    InvalidConfig,
    JobFailed,
    JobReport,
    JobSpec,
    NotFound,
    RunOptions,
    TaskState,
    UnknownFunction,
    UnknownInput,
    register,
    run_job,
    submit_job,
)
from minimapred.executors import make_executor
from minimapred.hashing import fnv1a64, partitions_for_keys
from minimapred.schedule import plan_map_tasks, plan_reduce_tasks, schedule
from minimapred.tasks import (
    group_by_key,
    iter_run,
    run_map_task,
    run_name,
    run_reduce_task,
    shuffle_fetch,
    write_run,
)
from minimapred.errors import SkipRecord
from minimapred.jobs import (
    uservisits_map,
    wordcount_combine,
    wordcount_map,
    wordcount_reduce,
    wordcount_split_map,
)
from minimapred.jobtypes import SPILL_PAIRS
from minimapred import dfs, registry
from minimapred.registry import per_record, resolve_split

import oracles


# ---------------------------------------------------------------------------
# partition function


def test_fnv1a64_known_vectors():
    # reference vectors from the FNV test suite
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_partition_r1_always_zero():
    assert partitions_for_keys([b"", b"a", b"some longer key"], 1) == [0, 0, 0]


def test_partition_is_pure():
    assert partitions_for_keys([b"k"], 7) == partitions_for_keys([b"k"], 7)


@settings(max_examples=40, deadline=None)
@given(pool=st.lists(st.binary(max_size=40), min_size=1, max_size=20),
       count=st.integers(0, 2600), reducers=st.integers(1, 7),
       rng=st.randoms(use_true_random=False))
def test_batched_partitions_equal_fnv1a64_per_key(pool, count, reducers, rng):
    # drawing from a small pool repeats keys, and puts more than one batch
    # of 1024 keys of one length in a long list
    keys = [rng.choice(pool) for _ in range(count)] + pool
    assert partitions_for_keys(keys, reducers) == [fnv1a64(k) % reducers for k in keys]


def test_batched_partitions_of_distinct_keys_past_one_batch():
    rng = random.Random(7)
    keys = list({rng.randbytes(rng.choice([3, 9])) for _ in range(3000)})
    assert partitions_for_keys(keys, 5) == [fnv1a64(k) % 5 for k in keys]


def test_partition_spread_on_random_keys():
    rng = random.Random(1234)
    keys = {bytes(rng.randrange(256) for _ in range(12)) for _ in range(11000)}
    keys = list(keys)[:10000]
    counts = [0, 0, 0, 0]
    for p in partitions_for_keys(keys, 4):
        counts[p] += 1
    assert all(c >= 0.15 * len(keys) for c in counts)


# ---------------------------------------------------------------------------
# scheduling


def mk_map_task(index, preferred):
    split = InputSplit("fid", index, 0, 1, tuple(preferred))
    return plan_map_tasks([split])[0]


def test_locality_preferred_node_chosen():
    task = mk_map_task(0, [2])
    assert schedule([task], [1, 2]) == [(task, 2)]


def test_fallback_to_lowest_idle_when_preferred_busy():
    task = mk_map_task(0, [2])
    assert schedule([task], [3]) == [(task, 3)]


def test_two_tasks_one_node_lower_task_id_first():
    t0, t1 = mk_map_task(0, [1]), mk_map_task(1, [1])
    assert schedule([t1, t0], [1]) == [(t0, 1)]


def test_task_without_idle_replica_leaves_a_later_tasks_replica_node():
    t0, t1 = mk_map_task(0, [2]), mk_map_task(1, [1])
    assert schedule([t0, t1], [1]) == [(t1, 1)]


def test_first_listed_replica_preferred():
    task = mk_map_task(0, [3, 0])
    assert schedule([task], [0, 3]) == [(task, 3)]


def test_reduce_tasks_have_no_locality():
    tasks = plan_reduce_tasks(2)
    got = schedule(tasks, [5, 2, 4])
    assert got == [(tasks[0], 2), (tasks[1], 4)]


@settings(max_examples=100, deadline=None)
@given(preferred=st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True),
       idle=st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True))
def test_locality_whenever_a_preferred_node_is_idle(preferred, idle):
    task = mk_map_task(0, preferred)
    [(got_task, node)] = schedule([task], idle)
    assert got_task is task
    if set(preferred) & set(idle):
        assert node in preferred
    else:
        assert node == min(idle)


def test_plan_map_tasks_one_per_split():
    splits = [InputSplit("fid", i, i * 10, (i + 1) * 10, (i % 3,)) for i in range(3)]
    tasks = plan_map_tasks(splits)
    assert [t.task_id for t in tasks] == ["map-0", "map-1", "map-2"]
    assert all(t.state is TaskState.PENDING and t.attempt == 0 for t in tasks)
    assert [t.payload.preferred_nodes for t in tasks] == [(0,), (1,), (2,)]
    assert plan_map_tasks([]) == []


def test_unknown_executor_rejected():
    with pytest.raises(InvalidConfig, match="unknown executor 'bogus'"):
        make_executor("bogus", 1, "memory")


# ---------------------------------------------------------------------------
# run files and map tasks


RUN_GROUPS = [
    (b"", [b""]),
    (b"k1", [b"v1", b"", b"v3"]),
    (b"key", [b"x" * 1000]),
    (b"key", [b"y", b""]),  # adjacent records may repeat a key
]


def frame_ends(data: bytes) -> list[int]:
    """Walk a run's 8-byte frame headers; returns every frame boundary."""
    ends = [0]
    while ends[-1] < len(data):
        at = ends[-1]
        ends.append(at + 8 + int.from_bytes(data[at:at + 8], "little"))
    assert ends[-1] == len(data)
    return ends


def test_run_file_roundtrip(small_cluster, monkeypatch):
    sink = small_cluster.store.open_local_write(0, "runs/t/one")
    assert write_run(sink, RUN_GROUPS) == 7
    sink.close()
    # frames cut at 20 bytes of keys and values plus 8 per value:
    # the first two groups (8 + 30), then one group each
    monkeypatch.setattr("minimapred.tasks.FRAME_BYTES", 20)
    sink = small_cluster.store.open_local_write(0, "runs/t/three")
    assert write_run(sink, RUN_GROUPS) == 7
    sink.close()
    for name, frames in (("runs/t/one", 1), ("runs/t/three", 3)):
        with small_cluster.store.open_local_read(0, name) as f:
            assert len(frame_ends(f.read())) - 1 == frames
        with small_cluster.store.open_local_read(0, name) as f:
            assert list(iter_run(f)) == RUN_GROUPS


def test_run_file_empty_key_and_values_roundtrip(monkeypatch):
    monkeypatch.setattr("minimapred.tasks.FRAME_BYTES", 1)  # one group per frame
    groups = [(b"", [b"", b""]), (b"", [b""]), (b"k", [b""])]
    buf = io.BytesIO()
    assert write_run(buf, groups) == 4
    assert len(frame_ends(buf.getvalue())) - 1 == 3
    assert list(iter_run(io.BytesIO(buf.getvalue()))) == groups
    empty = io.BytesIO()
    assert write_run(empty, []) == 0
    assert empty.getvalue() == b""
    assert list(iter_run(io.BytesIO(b""))) == []


def test_run_file_cut_anywhere_inside_a_group_raises(monkeypatch):
    monkeypatch.setattr("minimapred.tasks.FRAME_BYTES", 20)
    buf = io.BytesIO()
    write_run(buf, RUN_GROUPS)
    data = buf.getvalue()
    ends = frame_ends(data)
    # a cut on a frame boundary is a shorter run: 2, then 1 and 1 groups
    assert [len(list(iter_run(io.BytesIO(data[:end])))) for end in ends] == [0, 2, 3, 4]
    regions = set()
    for cut in range(len(data)):
        if cut in ends:
            continue
        start = max(e for e in ends if e < cut)
        regions.add("header" if cut - start < 8 else "body")
        with pytest.raises(ValueError, match="truncated run file"):
            list(iter_run(io.BytesIO(data[:cut])))
    assert regions == {"header", "body"}


class _ReadLog(io.BytesIO):
    def __init__(self, data: bytes):
        super().__init__(data)
        self.sizes: list[int] = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


def test_iter_run_reads_one_header_or_frame_at_a_time(monkeypatch):
    monkeypatch.setattr("minimapred.tasks.FRAME_BYTES", 20)
    buf = io.BytesIO()
    write_run(buf, RUN_GROUPS)
    data = buf.getvalue()
    ends = frame_ends(data)
    bodies = [b - a - 8 for a, b in itertools.pairwise(ends)]
    f = _ReadLog(data)
    groups = iter_run(f)
    assert next(groups) == RUN_GROUPS[0]
    assert f.sizes == [8, bodies[0]]
    assert [next(groups)] + list(groups) == RUN_GROUPS[1:]
    # one header and one body per frame, then the header read that hits EOF
    assert f.sizes == [n for body in bodies for n in (8, body)] + [8]


def _fresh(value: bytes) -> bytes:
    """An equal bytes object; a new one unless CPython caches it (b"", one byte)."""
    return bytes(bytearray(value))


# a group's values as (value, times, fresh) runs: one shared object repeated,
# or that many separate equal objects
_value_runs = st.lists(
    st.tuples(st.sampled_from([b"", b"1", b"xy", b"a longer value"]),
              st.integers(1, 5), st.booleans()),
    min_size=1, max_size=4)
_run_groups = st.lists(st.tuples(st.sampled_from([b"", b"k", b"key"]), _value_runs),
                       max_size=8)


def _expand(runs):
    return [_fresh(v) if fresh else v for v, times, fresh in runs for _ in range(times)]


@settings(max_examples=100, deadline=None)
@given(drawn=_run_groups, frame_bytes=st.sampled_from([1, 20, 32 << 10]))
def test_run_roundtrip_with_repeated_lone_and_empty_values(drawn, frame_bytes):
    groups = [(k, _expand(runs)) for k, runs in drawn]
    buf = io.BytesIO()
    with mock.patch("minimapred.tasks.FRAME_BYTES", frame_bytes):
        assert write_run(buf, groups) == sum(len(vs) for _, vs in groups)
    decoded = list(iter_run(io.BytesIO(buf.getvalue())))
    assert decoded == groups
    for _, vs in decoded:  # a repeated value decodes as one shared object
        if len(vs) > 1 and vs.count(vs[0]) == len(vs):
            assert all(v is vs[0] for v in vs)


@settings(max_examples=100, deadline=None)
@given(drawn=_run_groups)
def test_run_bytes_do_not_depend_on_value_identity(drawn):
    def run(values_of):
        buf = io.BytesIO()
        write_run(buf, [(k, values_of(runs)) for k, runs in drawn])
        return buf.getvalue()

    shared = run(lambda runs: [v for v, times, _ in runs for _ in range(times)])
    fresh = run(lambda runs: [_fresh(v) for v, times, _ in runs for _ in range(times)])
    assert shared == fresh == run(_expand)


def test_repeated_non_bytes_value_fails_at_the_run_write():
    with pytest.raises(TypeError):
        write_run(io.BytesIO(), [(b"k", ["1", "1"])])


def test_hot_key_run_is_small_and_decodes_at_a_slot_per_value():
    n = 10**6
    buf = io.BytesIO()
    assert write_run(buf, [(b"hot", [b"1"] * n)]) == n
    assert len(buf.getvalue()) < 1024
    tracemalloc.start()
    try:
        [(key, values)] = iter_run(io.BytesIO(buf.getvalue()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert key == b"hot" and len(values) == n and values.count(b"1") == n
    assert peak < 9 * n  # 8 bytes of list slot per value, plus a little


@pytest.mark.parametrize("value", ["1", 1])
def test_non_bytes_mapper_value_fails_at_the_run_write(value):
    c, split = _single_line_cluster(b"alpha beta")
    with pytest.raises(TypeError) as exc:
        run_map_task(c, "j", "map-0", 0, 0, split,
                     per_record(lambda offset, line: [(b"k", value)]), None, 1)
    assert exc.traceback[-1].name == "write_run"


@pytest.mark.parametrize("key", ["alpha", 1])
def test_non_bytes_combiner_key_fails_at_the_run_write(key):
    # "alpha" has two values, so the combiner runs on it
    c, split = _single_line_cluster(b"alpha beta alpha")
    with pytest.raises(TypeError) as exc:
        run_map_task(c, "j", "map-0", 0, 0, split, per_record(wordcount_map),
                     lambda k, vs: [(key, b"1")], 1)
    assert exc.traceback[-1].name == "write_run"


@pytest.mark.parametrize("kind", ["memory", "disk"])
def test_map_task_whose_combiner_raises_publishes_no_run(kind, tmp_path):
    config = ClusterConfig(num_nodes=2, chunk_size=8192, replication=1, seed=3)
    c = Cluster(config) if kind == "memory" else Cluster.open_disk(str(tmp_path / "s"), config)
    # "alpha" has two values, so the combiner runs on it
    [split] = c.make_splits(c.put_file("in", b"alpha beta alpha"))

    def combiner(key, values):
        raise RuntimeError("combiner failed")

    with pytest.raises(RuntimeError, match="combiner failed"):
        run_map_task(c, "j", "map-0", 0, 0, split, per_record(wordcount_map), combiner, 1)
    with pytest.raises(NotFound):
        c.store.open_local_read(0, run_name("j", "map-0", 0, 0))
    assert oracles.local_leftovers(c) == []


@pytest.mark.parametrize("kind", ["memory", "disk"])
def test_combiner_returning_another_key_fails_and_publishes_no_run(kind, tmp_path):
    # the key was partitioned and sorted before the combiner renamed it
    config = ClusterConfig(num_nodes=2, chunk_size=8192, replication=1, seed=3)
    c = Cluster(config) if kind == "memory" else Cluster.open_disk(str(tmp_path / "s"), config)
    # "alpha" has two values, so the combiner runs on it
    [split] = c.make_splits(c.put_file("in", b"alpha beta alpha"))
    with pytest.raises(ValueError, match=r"key b'alpha!' for key b'alpha'"):
        run_map_task(c, "j", "map-0", 0, 0, split, per_record(wordcount_map),
                     lambda key, values: [(key + b"!", b"2")], 1)
    assert oracles.local_leftovers(c) == []


@pytest.mark.parametrize("spill_pairs", [2, 10**9])
def test_combiner_runs_only_on_keys_with_two_or_more_buffered_values(spill_pairs):
    calls = []

    def combiner(key, values):
        calls.append((key, list(values)))
        return [(key, b"+".join(values))]

    # per_record hands on a:[1, 3, 5], b:[2], c:[4]; with spill_pairs 2,
    # a is written alone in a spill and b and c in the final run
    c, split = _single_line_cluster(b"a=1 b=2 a=3\nc=4 a=5\n")
    runs, _ = run_map_task(c, "j", "map-0", 0, 0, split, per_record(_emissions_map),
                           combiner, 1, spill_pairs)
    assert calls == [(b"a", [b"1", b"3", b"5"])]
    assert read_run_groups(c, 0, runs[0]) == [
        (b"a", [b"1+3+5"]), (b"b", [b"2"]), (b"c", [b"4"])]


def _single_line_cluster(line: bytes):
    c = Cluster(ClusterConfig(num_nodes=2, chunk_size=8192, replication=1, seed=3))
    meta = c.put_file("in", line)
    [split] = c.make_splits(meta)
    return c, split


def read_run_groups(cluster, node, names):
    """A map task's runs for one partition, each checked to be key-sorted,
    merged in spill order: a stable sort of the runs' groups laid end to end
    in ``names`` order."""
    groups = []
    for name in names:
        with cluster.store.open_local_read(node, name) as f:
            run = list(iter_run(f))
        assert [k for k, _ in run] == sorted(k for k, _ in run)
        groups += run
    return sorted(groups, key=lambda g: g[0])


def run_bytes(cluster, node, names):
    """The raw bytes of each of a map task's runs for one partition."""
    out = []
    for name in names:
        with cluster.store.open_local_read(node, name) as f:
            out.append(f.read())
    return out


def read_run_pairs(cluster, node, names):
    """A map task's runs for one partition, merged in spill order and
    expanded back to (key, value) pairs."""
    return [(k, v) for k, vs in read_run_groups(cluster, node, names) for v in vs]


def test_map_task_sorts_within_partition():
    c, split = _single_line_cluster(b"Algorithm Accent Ajax Algorithm")
    runs, skipped = run_map_task(
        c, "j", "map-0", 0, 0, split, per_record(wordcount_map), None, 1)
    assert skipped == 0
    assert read_run_pairs(c, 0, runs[0]) == [
        (b"Accent", b"1"),
        (b"Ajax", b"1"),
        (b"Algorithm", b"1"),
        (b"Algorithm", b"1"),
    ]


def test_map_task_combiner_pre_aggregates():
    c, split = _single_line_cluster(b"Algorithm Accent Ajax Algorithm")
    runs, _ = run_map_task(
        c, "j", "map-0", 0, 0, split, per_record(wordcount_map), wordcount_combine, 1)
    assert read_run_pairs(c, 0, runs[0]) == [
        (b"Accent", b"1"),
        (b"Ajax", b"1"),
        (b"Algorithm", b"2"),
    ]


def test_map_task_empty_split_leaves_empty_runs():
    c = Cluster(ClusterConfig(num_nodes=2, chunk_size=8, replication=1, seed=3))
    meta = c.put_file("in", b"ignored1\nowned2\n")
    split = c.make_splits(meta)[1]  # starts exactly at "owned2"
    empty = InputSplit(meta.file_id, 5, meta.size, meta.size, (0,))
    runs, skipped = run_map_task(
        c, "j", "map-5", 0, 0, empty, per_record(wordcount_map), None, 3)
    assert skipped == 0
    assert runs == [(f"runs/j/map-5.0.{p}",) for p in range(3)]
    for names in runs:
        assert read_run_pairs(c, 0, names) == []


def test_map_task_spills_produce_identical_runs():
    line = " ".join(f"w{i % 17:02d}" for i in range(500)).encode()
    c1, s1 = _single_line_cluster(line)
    c2, s2 = _single_line_cluster(line)
    big, _ = run_map_task(c1, "j", "map-0", 0, 0, s1, per_record(wordcount_map), None, 2,
                          spill_pairs=10**9)
    small, _ = run_map_task(c2, "j", "map-0", 0, 0, s2, per_record(wordcount_map), None, 2,
                            spill_pairs=64)
    assert [len(names) for names in big] == [1, 1]
    assert all(len(names) > 1 for names in small)
    for r1, r2 in zip(big, small):
        assert read_run_pairs(c1, 0, r1) == read_run_pairs(c2, 0, r2)


def test_stable_sort_keeps_emission_order_for_equal_keys():
    def emitter(offset, line):
        return [(b"k", str(i).encode()) for i in range(5)]

    c, split = _single_line_cluster(b"one-line")
    runs, _ = run_map_task(c, "j", "map-0", 0, 0, split, per_record(emitter), None, 1)
    values = [v for _, v in read_run_pairs(c, 0, runs[0])]
    assert values == [b"0", b"1", b"2", b"3", b"4"]


def _emissions_map(offset, line):
    """Each token ``key=value`` of a line is one emitted pair."""
    return [tuple(tok.split(b"=", 1)) for tok in line.split()]


def _join_values(key, values):
    # order-sensitive, and associative over non-empty value lists
    return [(key, b",".join(values))]


register("emissions.map", _emissions_map)
register("emissions.join", _join_values, combiner_safe=True)

_records = st.lists(
    st.lists(st.tuples(st.sampled_from([b"", b"a", b"b", b"c"]),
                       st.sampled_from([b"", b"1", b"xy"])), max_size=6),
    min_size=1, max_size=30,  # an empty file has no split
)


@settings(max_examples=60, deadline=None)
@given(records=_records,
       spill_pairs=st.one_of(st.integers(1, 20), st.integers(1, 10**9)),
       reducers=st.integers(1, 3), combine=st.booleans())
def test_map_task_runs_and_parts_hold_under_spills(records, spill_pairs, reducers, combine):
    data = b"".join(b" ".join(k + b"=" + v for k, v in r) + b"\n" for r in records)
    emitted = [kv for r in records for kv in r]
    values: dict[bytes, list[bytes]] = {}  # key -> values in emission order
    for k, v in emitted:
        values.setdefault(k, []).append(v)
    keys = [[k for k in sorted(values) if fnv1a64(k) % reducers == p] for p in range(reducers)]

    c, split = _single_line_cluster(data)
    written = []
    open_write = c.store.open_local_write
    c.store.open_local_write = lambda node, name: written.append(name) or open_write(node, name)
    runs, _ = run_map_task(c, "j", "map-0", 0, 0, split, per_record(_emissions_map),
                           _join_values if combine else None, reducers,
                           spill_pairs=spill_pairs)
    buffered = itertools.accumulate(len(r) for r in records)
    assert any(".spill" in n for n in written) == any(n >= spill_pairs for n in buffered)
    # every run written is output, each listed once, spills first
    assert sorted(n for names in runs for n in names) == sorted(written)
    for names, part_keys in zip(runs, keys):
        assert [".spill" in n for n in names] == [True] * (len(names) - 1) + [False]
        if not combine:
            assert read_run_pairs(c, 0, names) == sorted(
                (kv for kv in emitted if kv[0] in part_keys), key=lambda kv: kv[0])
        joined = [(k, b",".join(vs))
                  for k, vs in group_by_key(read_run_groups(c, 0, names))]
        assert joined == [(k, b",".join(values[k])) for k in part_keys]

    def job_parts(spill):
        cluster = Cluster(ClusterConfig(num_nodes=3, chunk_size=64, replication=1, seed=1))
        cluster.put_file("in", data)
        spec = JobSpec(job_id="emit", input_path="in", output_path="out",
                       mapper_id="emissions.map", reducer_id="emissions.join",
                       combiner_id="emissions.join" if combine else None,
                       num_reducers=reducers)
        report = submit_job(cluster, spec, RunOptions(executor="serial", spill_pairs=spill))
        return [cluster.get_file(part) for part in report.parts]

    expected = [b"".join(k + b"\t" + b",".join(values[k]) + b"\n" for k in part_keys)
                for part_keys in keys]
    assert job_parts(spill_pairs) == job_parts(10**9) == expected


def _emissions_split(records, combiner):
    """Split form of ``_emissions_map`` that yields each record's pairs
    grouped by key, so a key's groups repeat across records."""
    del combiner
    for offset, line in dfs.records(records):
        groups: dict[bytes, list[bytes]] = {}
        for k, v in _emissions_map(offset, line):
            groups.setdefault(k, []).append(v)
        yield from groups.items()


@settings(max_examples=40, deadline=None)
@given(records=_records,
       spill_pairs=st.one_of(st.integers(1, 20), st.integers(1, 10**9)),
       reducers=st.integers(1, 3))
def test_split_form_groups_extend_the_buffer_in_emission_order(records, spill_pairs, reducers):
    data = b"".join(b" ".join(k + b"=" + v for k, v in r) + b"\n" for r in records)

    def map_runs(split_form):
        c, split = _single_line_cluster(data)
        runs, _ = run_map_task(c, "j", "map-0", 0, 0, split, split_form, None,
                               reducers, spill_pairs)
        raw = [run_bytes(c, 0, names) for names in runs]
        grouped = [list(group_by_key(read_run_groups(c, 0, names)))
                   for names in runs]
        return raw, grouped

    record_raw, record_grouped = map_runs(per_record(_emissions_map))
    split_raw, split_grouped = map_runs(_emissions_split)
    assert split_grouped == record_grouped
    if spill_pairs > sum(map(len, records)):  # neither side spilled
        assert split_raw == record_raw


# the record form alone, so jobs on this id run the per-record path
register("wordcount_record.map", wordcount_map)

_token_lines = st.lists(
    st.lists(st.tuples(st.sampled_from([b"", b" ", b"\t", b"\r", b"  \t"]),
                       st.sampled_from([b"a", b"b", b"ab", b"\xc3\xa9", b"\xff", b"x\x00y"])),
             max_size=8),
    min_size=1, max_size=30,
)
_combiners = {None: None, "wordcount.combine": wordcount_combine, "emissions.join": _join_values}


@settings(max_examples=80, deadline=None)
@given(lines=_token_lines, combiner_id=st.sampled_from(sorted(_combiners, key=str)),
       spill_pairs=st.one_of(st.integers(1, 20), st.integers(1, 10**9)),
       reducers=st.integers(1, 3), block=st.sampled_from([1, 4, 16, dfs._BLOCK]))
def test_wordcount_split_form_matches_record_form(lines, combiner_id, spill_pairs, reducers,
                                                  block):
    # empty lines, repeated tokens, tabs, \r and non-ASCII bytes
    data = b"".join(b"".join(sep + tok for sep, tok in line) + b"\n" for line in lines)
    combiner = _combiners[combiner_id]

    def map_runs(split_form):
        c, split = _single_line_cluster(data)
        written = []
        open_write = c.store.open_local_write
        c.store.open_local_write = lambda node, name: written.append(name) or open_write(node, name)
        runs, skipped = run_map_task(c, "j", "map-0", 0, 0, split, split_form,
                                     combiner, reducers, spill_pairs)
        assert skipped == 0
        raw = [run_bytes(c, 0, names) for names in runs]
        # each key's values as one list; a combiner may have pre-combined
        # them differently on either side, so apply it once more
        finish = combiner or _join_values
        grouped = [[(k, finish(k, vs)) for k, vs in group_by_key(read_run_groups(c, 0, names))]
                   for names in runs]
        return any(".spill" in n for n in written), raw, grouped

    # small blocks: many blocks per split, and records longer than a block
    with mock.patch.object(dfs, "_BLOCK", block):
        spilled, record_raw, record_grouped = map_runs(per_record(wordcount_map))
        split_spilled, split_raw, split_grouped = map_runs(wordcount_split_map)
    if not spilled and not split_spilled:
        assert split_raw == record_raw
    assert split_grouped == record_grouped

    # a job whose combiner joins values must reduce by joining too
    reducer_id = "emissions.join" if combiner_id == "emissions.join" else "wordcount.reduce"

    def job_parts(mapper_id):
        c = Cluster(ClusterConfig(num_nodes=3, chunk_size=64, replication=1, seed=1))
        c.put_file("in", data)
        spec = JobSpec(job_id="wc", input_path="in", output_path="out",
                       mapper_id=mapper_id, reducer_id=reducer_id,
                       combiner_id=combiner_id, num_reducers=reducers)
        report = submit_job(c, spec, RunOptions(executor="serial", spill_pairs=spill_pairs))
        return [c.get_file(part) for part in report.parts]

    with mock.patch.object(dfs, "_BLOCK", block):
        assert job_parts("wordcount.map") == job_parts("wordcount_record.map")


# a visit row's revenue column: None stands for a row of only two fields;
# b"n/a" does not parse and b"inf" and b"nan" are not finite
_MALFORMED_REVENUES = (None, b"n/a", b"inf", b"nan")
_visit_rows = st.lists(
    st.tuples(st.sampled_from([b"10.0.0.1", b"10.0.0.2", b"10.0.0.3", b"10.9.9.9"]),
              st.sampled_from([b"12.50", b"0.01", b"7", *_MALFORMED_REVENUES])),
    min_size=1, max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(rows=_visit_rows,
       spill_pairs=st.one_of(st.integers(1, 20), st.just(10**9)),
       reducers=st.integers(1, 3),
       window=st.sampled_from([1, 3, registry.PER_RECORD_WINDOW]))
def test_per_record_groups_runs_and_counts_skips(rows, spill_pairs, reducers, window):
    data = b"".join(ip + b"|dest" + (b"" if rev is None else b"|" + rev + b"|agent") + b"\n"
                    for ip, rev in rows)
    # key -> values in emission order, from the plain reference loop
    expected = oracles.sequential_mapreduce(data, uservisits_map, lambda k, vs: [(k, vs)])

    c, split = _single_line_cluster(data)
    with mock.patch.object(registry, "PER_RECORD_WINDOW", window):
        runs, skipped = run_map_task(c, "j", "map-0", 0, 0, split,
                                     per_record(uservisits_map), None, reducers,
                                     spill_pairs)
    assert skipped == sum(rev in _MALFORMED_REVENUES for _, rev in rows)
    for p, names in enumerate(runs):
        assert [".spill" in n for n in names] == [True] * (len(names) - 1) + [False]
        assert list(group_by_key(read_run_groups(c, 0, names))) == [
            (k, vs) for k, vs in expected.items() if fnv1a64(k) % reducers == p]


# ---------------------------------------------------------------------------
# shuffle and grouping


def _put_run(cluster, node, name, groups):
    sink = cluster.store.open_local_write(node, name)
    write_run(sink, groups)
    sink.close()


def test_shuffle_merges_sorted_runs(small_cluster):
    c = small_cluster
    _put_run(c, 0, "runs/j/map-0.0.0", [(b"a", [b"1"]), (b"c", [b"1", b"2"])])
    _put_run(c, 1, "runs/j/map-1.0.0", [(b"b", [b"1"])])
    sources = [(0, "map-0", 0, ("runs/j/map-0.0.0",)),
               (1, "map-1", 1, ("runs/j/map-1.0.0",))]
    assert list(shuffle_fetch(c, sources)) == [
        (b"a", [b"1"]), (b"b", [b"1"]), (b"c", [b"1", b"2"])]


def test_shuffle_ties_break_by_map_index(small_cluster):
    c = small_cluster
    _put_run(c, 0, "r0", [(b"k", [b"from-map0"]), (b"k", [b"map0-spill1"])])
    _put_run(c, 1, "r1", [(b"k", [b"from-map1"])])
    # source list order must not matter, only the map index
    sources = [(1, "map-1", 1, ("r1",)), (0, "map-0", 0, ("r0",))]
    assert [vs for _, vs in shuffle_fetch(c, sources)] == [
        [b"from-map0"], [b"map0-spill1"], [b"from-map1"]]

    # several runs per source: (map index, spill index, emission order)
    for node, name, groups in [
        (0, "m0.spill0", [(b"a", [b"0s0"]), (b"k", [b"0s0-1", b"0s0-2"])]),
        (0, "m0.spill1", [(b"k", [b"0s1"]), (b"z", [b"0s1"])]),
        (0, "m0", [(b"a", [b"0f"]), (b"k", [b"0f-1"]), (b"k", [b"0f-2"])]),
        (1, "m1.spill0", [(b"k", [b"1s0"])]),
        (1, "m1", [(b"a", [b"1f"]), (b"k", [b"1f"])]),
    ]:
        _put_run(c, node, name, groups)
    sources = [(1, "map-1", 1, ("m1.spill0", "m1")),
               (0, "map-0", 0, ("m0.spill0", "m0.spill1", "m0"))]
    assert [(k, v) for k, vs in shuffle_fetch(c, sources) for v in vs] == [
        (b"a", b"0s0"), (b"a", b"0f"), (b"a", b"1f"),
        (b"k", b"0s0-1"), (b"k", b"0s0-2"), (b"k", b"0s1"), (b"k", b"0f-1"),
        (b"k", b"0f-2"), (b"k", b"1s0"), (b"k", b"1f"), (b"z", b"0s1")]


def test_shuffle_multiset_preserved(small_cluster):
    rng = random.Random(5)
    c = small_cluster
    emitted = []
    sources = []
    for i in range(4):
        pairs = sorted(
            ((bytes([rng.randrange(97, 105)]), str(rng.randrange(10)).encode())
             for _ in range(50)),
            key=lambda kv: kv[0],
        )
        emitted.extend(pairs)
        # one group per pair, so adjacent records repeat keys
        _put_run(c, i % 4, f"r{i}", [(k, [v]) for k, v in pairs])
        sources.append((i, f"map-{i}", i % 4, (f"r{i}",)))
    merged = [(k, v) for k, vs in shuffle_fetch(c, sources) for v in vs]
    assert sorted(merged) == sorted(emitted)
    assert [k for k, _ in merged] == sorted(k for k, _ in emitted)


def test_group_by_key_examples():
    stream = [(b"a", [b"1", b"2"]), (b"b", [b"3"])]
    assert list(group_by_key(stream)) == [(b"a", [b"1", b"2"]), (b"b", [b"3"])]
    assert list(group_by_key([])) == []
    singles = [(bytes([k]), [b"v"]) for k in range(97, 105)]
    assert [len(vs) for _, vs in group_by_key(singles)] == [1] * 8


def test_group_by_key_joins_adjacent_equal_keys_in_stream_order():
    first = [b"1", b"2"]
    stream = [(b"", [b""]), (b"", [b"x"]), (b"a", first), (b"a", []),
              (b"a", [b"3"]), (b"b", [b"4"]), (b"b", [b"5", b"6"])]
    assert list(group_by_key(stream)) == [
        (b"", [b"", b"x"]), (b"a", [b"1", b"2", b"3"]), (b"b", [b"4", b"5", b"6"])]
    assert first == [b"1", b"2"]  # the caller's lists are not extended


def test_group_by_key_rejects_unsorted_stream():
    with pytest.raises(AssertionError):
        list(group_by_key([(b"b", [b"1"]), (b"a", [b"2"])]))
    with pytest.raises(AssertionError):
        list(group_by_key([(b"a", [b"1"]), (b"b", [b"2"]), (b"a", [b"3"])]))


def test_reduce_task_writes_part(small_cluster):
    c = small_cluster
    _put_run(c, 0, "r", [(b"a", [b"1"]), (b"a", [b"2"])])
    part = run_reduce_task(c, 0, wordcount_reduce, [(0, "map-0", 0, ("r",))], "out")
    assert part == "out/part-r-00000"
    assert c.get_file(part) == b"a\t3\n"


def test_reduce_task_zero_groups_empty_part(small_cluster):
    part = run_reduce_task(small_cluster, 1, wordcount_reduce, [], "out")
    assert small_cluster.get_file("out/part-r-00001") == b""


@pytest.mark.parametrize("keys", [50_000, 200_000])
def test_reduce_task_peak_memory_is_a_small_multiple_of_its_part(keys):
    # a reduce task holds no list of its pairs or lines, only the part's
    # bytes, so its traced peak does not grow with the key count faster
    # than the part does
    c = Cluster(ClusterConfig(num_nodes=1, replication=1))
    _put_run(c, 0, "r", ((b"%08d" % i, [b"1"]) for i in range(keys)))
    tracemalloc.start()
    try:
        part = run_reduce_task(c, 0, wordcount_reduce, [(0, "map-0", 0, ("r",))], "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = c.meta(part).size
    assert size == 11 * keys
    assert peak <= 3 * size, f"peak {peak} bytes is {peak / size:.1f}x the part"


def _reduce_failing_at_c(key, values):
    if key == b"c":
        raise RuntimeError("reducer failed at its third key")
    return wordcount_reduce(key, values)


register("failing_at_c.reduce", _reduce_failing_at_c)


@pytest.mark.parametrize("store", ["memory", "disk"])
def test_failed_reducer_leaves_the_part_at_its_path_as_it_was(tmp_path, store):
    config = ClusterConfig(num_nodes=4, chunk_size=64, replication=2, seed=7)
    c = (Cluster(config) if store == "memory"
         else Cluster.open_disk(str(tmp_path / "store"), config))
    c.put_file("in", random_tokens(3))
    submit_job(c, wc_spec(reducers=1), RunOptions(executor="serial"))
    part = "out/part-r-00000"
    old_bytes, old_meta = c.get_file(part), c.meta(part)
    c.put_file("in2", b"a b c d\n" * 20)
    spec = replace(wc_spec(reducers=1, job_id="wc2"), input_path="in2",
                   reducer_id="failing_at_c.reduce")
    with pytest.raises(JobFailed):
        submit_job(c, spec, RunOptions(executor="serial"))
    assert c.get_file(part) == old_bytes
    assert c.meta(part) == old_meta


# ---------------------------------------------------------------------------
# whole jobs


def wc_spec(combiner=True, reducers=2, out="out", job_id="wc"):
    return JobSpec(
        job_id=job_id,
        input_path="in",
        output_path=out,
        mapper_id="wordcount.map",
        reducer_id="wordcount.reduce",
        combiner_id="wordcount.combine" if combiner else None,
        num_reducers=reducers,
    )


def random_tokens(seed, n=400, vocab=40):
    rng = random.Random(seed)
    words = [f"word{i:03d}" for i in range(vocab)]
    lines = []
    while n > 0:
        k = rng.randrange(0, 9)
        lines.append(" ".join(rng.choice(words) for _ in range(min(k, n))))
        n -= k
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("reducers", [1, 3])
def test_wordcount_matches_oracle(small_cluster, reducers):
    data = random_tokens(21)
    small_cluster.put_file("in", data)
    res = run_job(small_cluster, wc_spec(reducers=reducers),
                  RunOptions(executor="serial"))
    got = oracles.parse_parts(small_cluster, res.report.parts)
    assert got == {k: str(v).encode() for k, v in oracles.wordcount(data).items()}


def test_empty_input_produces_empty_parts(small_cluster):
    small_cluster.put_file("in", b"")
    res = run_job(small_cluster, wc_spec(reducers=3), RunOptions(executor="serial"))
    assert res.report.phase == "done"
    assert res.report.map_tasks == 0 and res.report.map_attempts == 0
    assert len(res.report.parts) == 3
    for p in res.report.parts:
        assert small_cluster.get_file(p) == b""


def test_same_seed_same_part_bytes():
    data = random_tokens(9)

    def one_run():
        c = Cluster(ClusterConfig(num_nodes=4, chunk_size=64, replication=2, seed=11))
        c.put_file("in", data)
        report = submit_job(c, wc_spec(), RunOptions(executor="serial"))
        return [c.get_file(p) for p in report.parts]

    assert one_run() == one_run()


def test_output_identical_across_executors(tmp_path):
    data = random_tokens(13)
    config = ClusterConfig(num_nodes=4, chunk_size=64, replication=2, seed=11)
    outputs = {}
    for kind, executor in [("disk", "serial"), ("disk", "threads"), ("disk", "processes"),
                           ("memory", "serial"), ("memory", "threads")]:
        c = (Cluster.open_disk(str(tmp_path / executor), config) if kind == "disk"
             else Cluster(config))
        c.put_file("in", data)
        report = submit_job(c, wc_spec(), RunOptions(executor=executor))
        outputs[kind, executor] = [c.get_file(p) for p in report.parts]
        # the job's cleanup leaves no run, spill or temp file on any node
        assert oracles.local_leftovers(c) == [], (kind, executor)
    assert all(o == outputs["disk", "serial"] for o in outputs.values())


SPILL_CONFIG = ClusterConfig(num_nodes=3, chunk_size=2048, replication=2, seed=11)


def _spilling_wordcount(cluster, spill_pairs, **options):
    """Wordcount without a combiner over 1200 tokens (9.6 kB) in 5 map tasks."""
    cluster.put_file("in", random_tokens(43, n=1200))
    return run_job(cluster, wc_spec(combiner=False),
                   RunOptions(spill_pairs=spill_pairs, **options))


def test_spill_runs_are_sources_and_are_removed_with_the_job(tmp_path):
    kept = Cluster.open_disk(str(tmp_path / "kept"), SPILL_CONFIG)
    kept.store.delete_local_tree = lambda node, prefix: None  # keep the runs to inspect
    res = _spilling_wordcount(kept, 40, executor="serial")
    runs = [(m.assigned_node, name) for m in res.state.map_tasks
            for names in m.result.runs for name in names]
    assert sum(".spill" in name for _, name in runs) >= 4
    for node, name in runs:
        assert os.path.isfile(os.path.join(tmp_path, "kept", f"node{node}", "local",
                                           *name.split("/")))

    clean = Cluster.open_disk(str(tmp_path / "clean"), SPILL_CONFIG)
    _spilling_wordcount(clean, 40, executor="serial")
    for node in range(SPILL_CONFIG.num_nodes):
        assert os.path.isdir(os.path.join(tmp_path, "kept", f"node{node}", "local",
                                          "runs", "wc")) == any(n == node for n, _ in runs)
        assert not os.path.exists(os.path.join(tmp_path, "clean", f"node{node}",
                                               "local", "runs", "wc"))


def test_hundreds_of_runs_per_reducer_under_processes_match_serial(tmp_path):
    disk = Cluster.open_disk(str(tmp_path / "store"), SPILL_CONFIG)
    res = _spilling_wordcount(disk, 1, executor="processes")
    for p in range(2):
        assert sum(len(m.result.runs[p]) for m in res.state.map_tasks) >= 100
    parts = [disk.get_file(p) for p in res.report.parts]
    for spill_pairs in (1, 10**9):
        mem = Cluster(SPILL_CONFIG)
        report = _spilling_wordcount(mem, spill_pairs, executor="serial").report
        assert [mem.get_file(p) for p in report.parts] == parts


def test_phase_barrier_no_reduce_before_maps_done(small_cluster):
    small_cluster.put_file("in", random_tokens(3))
    res = run_job(small_cluster, wc_spec(), RunOptions(executor="serial"))
    maps_done_at = max(
        i for i, e in enumerate(res.events)
        if e["event"] == "complete" and e["task"].startswith("map-")
    )
    first_reduce_dispatch = min(
        i for i, e in enumerate(res.events)
        if e["event"] == "dispatch" and e["task"].startswith("reduce-")
    )
    assert first_reduce_dispatch > maps_done_at


def test_exactly_once_capture_matches_mapper_emissions(small_cluster, recording_reducer):
    data = random_tokens(17)
    small_cluster.put_file("in", data)
    reducer_id, reducer_inputs = recording_reducer("wordcount.reduce")
    spec = replace(wc_spec(combiner=False, reducers=3), reducer_id=reducer_id)
    submit_job(small_cluster, spec, RunOptions(executor="serial"))
    pooled = sorted(reducer_inputs)
    expected = sorted(
        pair
        for offset, line in oracles.records_with_offsets(data)
        for pair in wordcount_map(offset, line)
    )
    assert pooled == expected


def test_unknown_input_and_function(small_cluster):
    with pytest.raises(UnknownInput):
        submit_job(small_cluster, wc_spec(), RunOptions(executor="serial"))
    small_cluster.put_file("in", b"x\n")
    bad = JobSpec(job_id="j", input_path="in", output_path="o",
                  mapper_id="missing.map", reducer_id="wordcount.reduce")
    with pytest.raises(UnknownFunction):
        submit_job(small_cluster, bad, RunOptions(executor="serial"))


def test_undeclared_combiner_rejected(small_cluster):
    register("sneaky.combine", lambda k, vs: [(k, vs[0])])  # not combiner_safe
    small_cluster.put_file("in", b"x\n")
    spec = JobSpec(job_id="j", input_path="in", output_path="o",
                   mapper_id="wordcount.map", reducer_id="wordcount.reduce",
                   combiner_id="sneaky.combine")
    with pytest.raises(InvalidConfig):
        submit_job(small_cluster, spec, RunOptions(executor="serial"))


@pytest.mark.parametrize("job_id", ["", ".", "..", "../..", "a/b", "/abs", "a\\b"])
def test_job_id_must_be_one_path_component(job_id):
    # the id names the node-local runs/<job_id> tree that the job deletes
    with pytest.raises(InvalidConfig, match="job_id"):
        wc_spec(job_id=job_id)


@pytest.mark.parametrize("reducers, message", [
    (0, "num_reducers must be >= 1"),
    (-1, "num_reducers must be >= 1"),
    (2.0, "integers, got 2.0"),
    (True, "integers, got True"),
])
def test_num_reducers_must_be_a_positive_int(reducers, message):
    # JobSpec's is the one reducer-count check, before any task is planned
    with pytest.raises(InvalidConfig, match=message):
        wc_spec(reducers=reducers)


@pytest.mark.parametrize("input_path, output_path, reducers", [
    ("o/part-r-00000", "o", 2),
    ("o/part-r-00001", "o/", 2),
    ("/part-r-00000", "", 1),
])
def test_input_that_is_one_of_the_jobs_own_parts_rejected(input_path, output_path, reducers):
    # reduce-0 would replace the input before re-executed maps read it
    with pytest.raises(InvalidConfig, match="own output"):
        replace(wc_spec(out=output_path, reducers=reducers), input_path=input_path)


def test_input_beside_the_jobs_own_parts_accepted():
    for input_path, reducers in (("o/part-r-00002", 2), ("o/part-r-00001", 1),
                                 ("o/part-r-0", 2), ("p/part-r-00000", 2),
                                 ("o/part-r-" + "1" * 5000, 2)):
        spec = replace(wc_spec(out="o", reducers=reducers), input_path=input_path)
        assert spec.input_path == input_path


def test_plain_job_ids_accepted():
    for job_id in ("wc", "uv-parallel-12", "wordcount-1a2b3c4d", "..x", "a.b"):
        assert wc_spec(job_id=job_id).job_id == job_id


def test_spill_pairs_below_one_rejected():
    # a float or bool is not a count either; nan and inf would pass a "< 1"
    # check and turn spilling off
    for bad in (0, -5, float("nan"), float("inf"), 2.5, True):
        with pytest.raises(InvalidConfig, match="spill_pairs"):
            RunOptions(spill_pairs=bad)
    assert RunOptions(spill_pairs=1).spill_pairs == 1
    assert RunOptions().spill_pairs == SPILL_PAIRS
    assert run_map_task.__defaults__[0] == SPILL_PAIRS


def test_wordcount_job_runs_the_split_form(small_cluster):
    assert resolve_split("wordcount.map") is wordcount_split_map
    calls = {"record": 0, "split": 0}

    def record_form(offset, line):
        calls["record"] += 1
        return wordcount_map(offset, line)

    def split_form(records, combiner):
        calls["split"] += 1
        return wordcount_split_map(records, combiner)

    register("counted.map", record_form, split=split_form)
    data = random_tokens(17)
    small_cluster.put_file("in", data)
    spec = replace(wc_spec(), mapper_id="counted.map")
    res = run_job(small_cluster, spec, RunOptions(executor="serial"))
    assert calls == {"record": 0, "split": res.report.map_tasks}
    assert res.report.map_tasks > 1
    got = oracles.parse_parts(small_cluster, res.report.parts)
    assert got == {k: str(v).encode() for k, v in oracles.wordcount(data).items()}


def test_mapper_without_split_form_runs_per_record(small_cluster):
    def comment_skipping_map(offset, line):
        if line.startswith(b"#"):
            raise SkipRecord("comment")
        return wordcount_map(offset, line)

    register("commented.map", wordcount_map, split=wordcount_split_map)
    register("commented.map", comment_skipping_map)  # re-registering drops the split form
    assert resolve_split("commented.map") is not wordcount_split_map
    data = b"# a b\nb c\n#\nc c\n"
    small_cluster.put_file("in", data)
    spec = replace(wc_spec(), mapper_id="commented.map")
    res = run_job(small_cluster, spec, RunOptions(executor="serial"))
    assert res.report.skipped_records == 2
    got = oracles.parse_parts(small_cluster, res.report.parts)
    assert got == {b"b": b"1", b"c": b"3"}


def _comment_skipping_split(records, combiner):
    """Split form that skips comment lines and returns how many it skipped."""
    kept = []
    skipped = 0
    for offset, line in dfs.records(records):
        if line.startswith(b"#"):
            skipped += 1
        else:
            kept.append((offset, line))
    yield from wordcount_split_map(kept, combiner)
    return skipped


register("comment_split.map", wordcount_map, split=_comment_skipping_split)
register("listed_split.map", wordcount_map,
         split=lambda records, combiner: iter(list(wordcount_split_map(records, combiner))))


@pytest.mark.parametrize("executor", ["serial", "threads"])
def test_split_form_return_value_is_the_skip_count(small_cluster, executor):
    lines = random_tokens(23).splitlines()
    data = b"".join(b"# " + line + b"\n" if i % 5 == 0 else line + b"\n"
                    for i, line in enumerate(lines))
    small_cluster.put_file("in", data)
    kept = b"".join(line + b"\n" for i, line in enumerate(lines) if i % 5)

    def run(mapper_id):
        spec = replace(wc_spec(), mapper_id=mapper_id, output_path=mapper_id)
        return run_job(small_cluster, spec, RunOptions(executor=executor)).report

    report = run("comment_split.map")
    assert report.map_tasks > 1
    assert report.skipped_records == len(lines[::5])
    assert oracles.parse_parts(small_cluster, report.parts) == {
        k: str(v).encode() for k, v in oracles.wordcount(kept).items()}
    # a split form that is a plain iterator has no return value: 0 skipped
    assert run("listed_split.map").skipped_records == 0


def test_reregistered_combiner_loses_its_safety(small_cluster):
    register("fickle.combine", wordcount_combine, combiner_safe=True)
    register("fickle.combine", wordcount_combine)  # replaces the declaration too
    small_cluster.put_file("in", b"x\n")
    spec = replace(wc_spec(), combiner_id="fickle.combine")
    with pytest.raises(InvalidConfig):
        submit_job(small_cluster, spec, RunOptions(executor="serial"))


def test_workers_bounded_by_nodes(small_cluster):
    small_cluster.put_file("in", b"x\n")
    for workers in (9, 0, 1.5, True):
        with pytest.raises(InvalidConfig):
            submit_job(small_cluster, wc_spec(), RunOptions(workers=workers, executor="serial"))


def test_processes_require_disk_store(small_cluster):
    small_cluster.put_file("in", b"x\n")
    with pytest.raises(InvalidConfig):
        submit_job(small_cluster, wc_spec(), RunOptions(executor="processes"))


def test_job_report_json_bytes():
    report = JobReport(
        job_id="wc", phase="done", map_attempts=3, reduce_attempts=2,
        elapsed_ms=12.5, parts=["out/part-r-00000"], map_tasks=2, reduce_tasks=1,
        re_executed_completed_maps=1, skipped_records=4,
        tasks=[{"task_id": "map-1", "kind": "map", "state": "completed",
                "attempt": 1, "node": 2}],
    )
    assert report.to_json() == (
        '{"job_id": "wc", "phase": "done", "map_attempts": 3, "reduce_attempts": 2, '
        '"elapsed_ms": 12.5, "parts": ["out/part-r-00000"], "map_tasks": 2, '
        '"reduce_tasks": 1, "re_executed_completed_maps": 1, '
        '"re_executed_completed_reduces": 0, "skipped_records": 4, "tasks": '
        '[{"task_id": "map-1", "kind": "map", "state": "completed", "attempt": 1, '
        '"node": 2}]}'
    )
    assert report.to_json(indent=2) == """\
{
  "job_id": "wc",
  "phase": "done",
  "map_attempts": 3,
  "reduce_attempts": 2,
  "elapsed_ms": 12.5,
  "parts": [
    "out/part-r-00000"
  ],
  "map_tasks": 2,
  "reduce_tasks": 1,
  "re_executed_completed_maps": 1,
  "re_executed_completed_reduces": 0,
  "skipped_records": 4,
  "tasks": [
    {
      "task_id": "map-1",
      "kind": "map",
      "state": "completed",
      "attempt": 1,
      "node": 2
    }
  ]
}"""


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), reducers=st.integers(1, 4),
       chunk=st.integers(8, 200))
def test_wordcount_oracle_equivalence_property(seed, reducers, chunk):
    data = random_tokens(seed, n=120)
    c = Cluster(ClusterConfig(num_nodes=3, chunk_size=chunk, replication=2, seed=1))
    c.put_file("in", data)
    report = submit_job(c, wc_spec(reducers=reducers), RunOptions(executor="serial"))
    got = oracles.parse_parts(c, report.parts)
    expected = oracles.sequential_mapreduce(data, wordcount_map, wordcount_reduce)
    assert got == expected
