"""The built-in wordcount and uservisits jobs."""

import math
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent import futures
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from minimapred import (
    Cluster,
    ClusterConfig,
    JobFailed,
    JobSpec,
    RunOptions,
    SkipRecord,
    UnknownFunction,
    register,
    registry,
    resolve,
    run_job,
    submit_job,
)
from minimapred.jobs import (
    uservisits_lines,
    uservisits_map,
    uservisits_reduce,
    uservisits_split_map,
    wordcount_combine,
    wordcount_map,
    wordcount_reduce,
)

import oracles
from oracles import UserVisitRecord
from test_engine import random_tokens, wc_spec


# ---------------------------------------------------------------------------
# wordcount functions


def test_wordcount_map_paper_tokens():
    assert wordcount_map(0, b"Algorithm Accent Ajax") == [
        (b"Algorithm", b"1"), (b"Accent", b"1"), (b"Ajax", b"1")]


def test_wordcount_map_empty_line():
    assert wordcount_map(0, b"") == []


def test_wordcount_map_per_occurrence():
    assert wordcount_map(0, b"x x x") == [(b"x", b"1")] * 3


def test_tokenize_rules():
    # ASCII whitespace runs only; case kept; punctuation kept
    line = b"  Foo  foo\tbar. baz!  "
    assert [k for k, _ in wordcount_map(0, line)] == [b"Foo", b"foo", b"bar.", b"baz!"]
    assert wordcount_map(0, b"") == []


def test_wordcount_reduce_sums():
    assert wordcount_reduce(b"Algorithm", [b"1", b"1"]) == [(b"Algorithm", b"2")]
    assert wordcount_reduce(b"Ajax", [b"1"]) == [(b"Ajax", b"1")]


def test_wordcount_reduce_parse_diagnostic():
    # the last three pass strip(b"-").isdigit() but int() rejects them
    for bad in (b"zzz", b"--1", b"1-", b"-1-"):
        with pytest.raises(ValueError, match=f"count {re.escape(repr(bad))} .* not an integer"):
            wordcount_reduce(b"k", [b"1", bad])


# counts int() accepts; the reducer's all-b"1" shortcut must give their sum
_int_counts = st.sampled_from([b"1", b"01", b"+1", b" 1", b"-1", b"2", b"1_0"])
_count_lists = st.one_of(st.lists(st.just(b"1"), max_size=40),
                         st.lists(_int_counts, max_size=40))


@settings(max_examples=200, deadline=None)
@given(values=_count_lists)
@example(values=[])
@example(values=[b"1"] * 7)
def test_wordcount_reduce_equals_int_sum(values):
    assert wordcount_reduce(b"k", values) == [(b"k", str(sum(map(int, values))).encode())]


@settings(max_examples=150, deadline=None)
@given(values=_count_lists,
       bad=st.sampled_from([b"zzz", b"--1", b"1-", b"-1-", b"", b"1.0", b"one", b"1 1"]),
       draw=st.data())
def test_wordcount_reduce_names_one_bad_count(values, bad, draw):
    at = draw.draw(st.integers(0, len(values)))
    with pytest.raises(ValueError, match=f"count {re.escape(repr(bad))} .* not an integer"):
        wordcount_reduce(b"k", values[:at] + [bad] + values[at:])


def test_bad_counts_fail_job_with_diagnostic(small_cluster):
    def garbage_map(offset, line):
        return [(b"k", b"not-a-number")]

    register("garbage.map", garbage_map)
    small_cluster.put_file("in", b"line\n")
    spec = JobSpec(job_id="g", input_path="in", output_path="o",
                   mapper_id="garbage.map", reducer_id="wordcount.reduce")
    with pytest.raises(JobFailed) as exc:
        submit_job(small_cluster, spec, RunOptions(executor="serial"))
    assert "not an integer" in str(exc.value)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 50), min_size=1, max_size=30),
       st.data())
def test_wordcount_combine_is_associative_commutative(counts, data):
    values = [str(c).encode() for c in counts]
    [(_, direct)] = wordcount_combine(b"k", values)
    cut = data.draw(st.integers(0, len(values)))
    shuffled = list(values)
    data.draw(st.randoms(use_true_random=False)).shuffle(shuffled)
    [(_, left)] = wordcount_combine(b"k", shuffled[:cut] or [b"0"])
    [(_, right)] = wordcount_combine(b"k", shuffled[cut:] or [b"0"])
    [(_, recombined)] = wordcount_combine(b"k", [left, right])
    assert recombined == direct


# ---------------------------------------------------------------------------
# uservisits functions


def test_uservisits_map_paper_style_row():
    line = b"10.0.0.1|shop.example/p7|3.50|UA-1|widget|12"
    [(key, value)] = uservisits_map(0, line)
    assert key == b"10.0.0.1"
    assert float(value) == 3.50


def test_uservisits_map_zero_revenue():
    assert uservisits_map(0, b"a|b|0|c|d|0") == [(b"a", b"0")]
    assert uservisits_reduce(b"a", [b"0"]) == [(b"a", b"0.0")]


def test_uservisits_map_skips_short_rows():
    with pytest.raises(SkipRecord):
        uservisits_map(0, b"only|two")


@pytest.mark.parametrize("bad", [b"a|b|notafloat|c|d|0", b"a|b|inf|c|d|0",
                                 b"a|b|nan|c|d|0"])
def test_uservisits_map_skips_unparseable_revenue(bad):
    with pytest.raises(SkipRecord):
        uservisits_map(0, bad)


def _drain(groups):
    """The (key, values) groups a split form yields, and its return value."""
    out = []
    while True:
        try:
            out.append(next(groups))
        except StopIteration as stop:
            return out, stop.value


# rows that pass and rows that each of the mapper's three checks rejects:
# too few fields, a revenue that does not parse, and one that is not finite
_revenue_texts = st.sampled_from([
    b"12.50", b"0.01", b"7", b"n/a", b"", b"inf", b"-inf", b"nan", b"1e309",
    b" 12.5 ", b"1_0", b"+7"])
_visit_line = st.one_of(
    st.builds(lambda ip, rev, extra, end: ip + b"|dest|" + rev + extra + end,
              st.sampled_from([b"10.0.0.1", b"10.0.0.2", b"", b"10.9.9.9"]),
              _revenue_texts,
              st.sampled_from([b"", b"|agent", b"|agent|word|12", b"|a|b|c|d|e"]),
              st.sampled_from([b"", b"\r"])),
    st.builds(lambda ip, end: ip + b"|dest" + end,
              st.sampled_from([b"10.0.0.1", b"10.0.0.2"]), st.sampled_from([b"", b"\r"])),
    st.binary(max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_visit_line, max_size=30),
       window=st.sampled_from([1, 3, 4096]), draw=st.data())
def test_uservisits_split_map_yields_per_record_groups(lines, window, draw):
    # the lines as blocks, cut where a drawn flag says a line starts a new one
    starts = draw.draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
    blocks = []
    offset = 0
    for line, start in zip(lines, starts):
        if start or not blocks:
            blocks.append((offset, line))
        else:
            blocks[-1] = (blocks[-1][0], blocks[-1][1] + b"\n" + line)
        offset += len(line) + 1
    with mock.patch.object(registry, "PER_RECORD_WINDOW", window):
        expected = _drain(registry.per_record(uservisits_map)(iter(blocks), None))
        assert _drain(uservisits_split_map(iter(blocks), None)) == expected


def test_uservisits_reduce_sums_left_to_right():
    assert uservisits_reduce(b"10.0.0.1", [b"3.5", b"1.25"]) == [
        (b"10.0.0.1", repr(4.75).encode())]
    assert uservisits_reduce(b"k", [b"2.25"]) == [(b"k", b"2.25")]
    # compensated summation, as sum() of floats does from Python 3.12, gives 1.0
    assert uservisits_reduce(b"k", [b"1e16", b"1", b"-1e16"]) == [(b"k", b"0.0")]


def test_user_visit_record_roundtrip():
    rec = UserVisitRecord("10.1.2.3", "dest.example.com/p", 12.5,
                          "Mozilla/5.0 (agent-01)", "keyword001", 99)
    assert UserVisitRecord.from_line(rec.to_line()) == rec


def test_user_visit_record_enforces_limits():
    with pytest.raises(ValueError):
        UserVisitRecord("1" * 17, "d", 1.0, "ua", "kw", 0)
    with pytest.raises(ValueError):
        UserVisitRecord("1.2.3.4", "d", -1.0, "ua", "kw", 0)
    with pytest.raises(ValueError):
        UserVisitRecord("1.2.3.4", "d", math.inf, "ua", "kw", 0)


def test_skipped_rows_counted_not_fatal(small_cluster):
    good = uservisits_lines(20, seed=3)
    data = b"broken-row\n" + good + b"x|y\n"
    small_cluster.put_file("in", data)
    spec = JobSpec(job_id="uv", input_path="in", output_path="o",
                   mapper_id="uservisits.map", reducer_id="uservisits.reduce",
                   num_reducers=2)
    res = run_job(small_cluster, spec, RunOptions(executor="serial"))
    assert res.report.phase == "done"
    assert res.report.skipped_records == 2


# ---------------------------------------------------------------------------
# uservisits generator


def test_generator_zero_rows(small_cluster):
    meta = small_cluster.put_file("uv", uservisits_lines(0, seed=1))
    assert meta.size == 0
    assert small_cluster.get_file("uv") == b""


def test_generator_deterministic():
    assert uservisits_lines(500, seed=9) == uservisits_lines(500, seed=9)
    assert uservisits_lines(500, seed=9) != uservisits_lines(500, seed=10)


def test_generated_rows_valid_and_never_skipped():
    data = uservisits_lines(300, seed=4)
    lines = oracles.split_lines(data)
    assert len(lines) == 300
    for i, line in enumerate(lines):
        rec = UserVisitRecord.from_line(line)  # validates field limits
        [(key, value)] = uservisits_map(i, line)  # would raise SkipRecord
        assert key == rec.source_ip.encode()
    # the IP pool is small enough that keys repeat
    assert len({l.split(b"|")[0] for l in lines}) < 300


# ---------------------------------------------------------------------------
# end-to-end


def uv_spec(reducers=2, combiner=None):
    return JobSpec(job_id="uv", input_path="in", output_path="out",
                   mapper_id="uservisits.map", reducer_id="uservisits.reduce",
                   combiner_id=combiner, num_reducers=reducers)


def test_uservisits_pipeline_matches_oracle(small_cluster):
    data = uservisits_lines(400, seed=6)
    small_cluster.put_file("in", data)
    report = submit_job(small_cluster, uv_spec(), RunOptions(executor="serial"))
    got = {k: float(v) for k, v in oracles.parse_parts(
        small_cluster, report.parts).items()}
    expected = {k: v for k, v in oracles.uservisits_sums(data).items()}
    assert got.keys() == expected.keys()
    for k, v in expected.items():
        assert got[k] == pytest.approx(v, rel=1e-9)


# the record form alone, so jobs on this id run the per-record path
register("uservisits_record.map", uservisits_map)

# 3-field rows end in their revenue field, so a trailing \r is part of it
_job_visit_line = st.builds(
    lambda ip, rev, extra, end: ip + b"|dest|" + rev + extra + end,
    st.sampled_from([b"10.0.0.1", b"10.0.0.2", b"10.9.9.9"]),
    st.one_of(_revenue_texts, st.sampled_from([b"-0", b"007.10", b"1e3"])),
    st.sampled_from([b"", b"|agent|word|12"]),
    st.sampled_from([b"", b"\r"]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(lines=st.lists(_job_visit_line, max_size=30),
       spill_pairs=st.sampled_from([1, RunOptions().spill_pairs]))
def test_uservisits_job_parts_match_oracle_for_any_revenue_spelling(lines, spill_pairs):
    data = b"".join(line + b"\n" for line in lines)

    def job_parts(mapper_id):
        c = Cluster(ClusterConfig(num_nodes=3, chunk_size=64, replication=1, seed=1))
        c.put_file("in", data)
        spec = JobSpec(job_id="uv", input_path="in", output_path="out",
                       mapper_id=mapper_id, reducer_id="uservisits.reduce", num_reducers=2)
        report = submit_job(c, spec, RunOptions(executor="serial", spill_pairs=spill_pairs))
        return [c.get_file(part) for part in report.parts]

    parts = job_parts("uservisits.map")
    assert parts == job_parts("uservisits_record.map")
    got = sorted(line for part in parts for line in oracles.split_lines(part))
    assert got == sorted(k + b"\t" + repr(v).encode()
                         for k, v in oracles.uservisits_sums(data).items())


def test_uservisits_approximate_combiner_within_tolerance():
    # partial float sums would change the part bytes, so uservisits has no
    # combiner and the id is refused
    c = Cluster(ClusterConfig(num_nodes=4, chunk_size=256, replication=2, seed=2))
    c.put_file("in", uservisits_lines(40, seed=8))
    with pytest.raises(UnknownFunction):
        submit_job(c, uv_spec(combiner="uservisits.combine"), RunOptions(executor="serial"))


def test_wordcount_pipeline_matches_oracle_quarter_mb():
    data = random_tokens(123, n=30000, vocab=300)
    c = Cluster(ClusterConfig(num_nodes=4, chunk_size=16384, replication=2, seed=5))
    c.put_file("in", data)
    report = submit_job(c, wc_spec(reducers=3), RunOptions(executor="serial"))
    got = oracles.parse_parts(c, report.parts)
    assert got == {k: str(v).encode() for k, v in oracles.wordcount(data).items()}
    assert sum(int(v) for v in got.values()) == len(data.split())


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_combiner_output_byte_identical(seed):
    data = random_tokens(seed, n=150, vocab=25)
    parts = {}
    for use_combiner in (True, False):
        c = Cluster(ClusterConfig(num_nodes=3, chunk_size=128, replication=2, seed=1))
        c.put_file("in", data)
        report = submit_job(c, wc_spec(combiner=use_combiner, reducers=2),
                            RunOptions(executor="serial"))
        parts[use_combiner] = [c.get_file(p) for p in report.parts]
    assert parts[True] == parts[False]


def test_job_function_ids_registered():
    from minimapred import registered_ids

    for fn_id in ("wordcount.map", "wordcount.reduce", "wordcount.combine",
                  "uservisits.map", "uservisits.reduce"):
        assert fn_id in registered_ids()


def test_built_ins_resolve_in_a_fresh_process():
    # a forked worker inherits the registry; a spawned one or a new
    # interpreter registers the built-ins only by importing the package
    spawn = multiprocessing.get_context("spawn")
    with futures.ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        assert [pool.submit(resolve, fn_id).result(timeout=60)
                for fn_id in ("wordcount.map", "uservisits.map")] == [
            wordcount_map, uservisits_map]
    src = os.path.dirname(os.path.dirname(registry.__file__))
    subprocess.run([sys.executable, "-c", "from minimapred.registry import resolve; "
                    "resolve('uservisits.map')"],
                   check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
