"""Benchmark harness: input generation, matrix runs, ratio reports."""

import hashlib
import os
from dataclasses import replace
from pathlib import Path

import pytest

from minimapred import Cluster, InvalidConfig, ReportError, bench, register
from minimapred.bench import (
    CSV_COLUMNS,
    BenchMatrix,
    BenchRow,
    cell_medians,
    emit_plot_data,
    parse_size,
    read_rows_csv,
    run_matrix,
    speedup_report,
    token_lines,
)

import oracles


# ---------------------------------------------------------------------------
# token generation


def test_token_lines_zero_size():
    assert token_lines(0) == b""


def test_token_lines_deterministic():
    assert token_lines(4096, seed=5) == token_lines(4096, seed=5)
    assert token_lines(4096, seed=5) != token_lines(4096, seed=6)


def test_token_lines_single_token_vocab():
    data = token_lines(600, vocab_size=1, seed=3)
    assert set(data.split()) == {b"tok00000"}


def test_token_lines_size_within_one_token():
    for target in (1, 10, 500, 4096, 100_000):
        data = token_lines(target, seed=7)
        longest = max(len(t) for t in data.split())
        assert target <= len(data) <= target + longest + 1


def test_token_lines_bounded_line_length():
    data = token_lines(50_000, seed=2)
    assert all(len(line) <= 4096 for line in oracles.split_lines(data))


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_uservisits_input_near_requested_size(seed):
    for size in (1 << 20, 4 << 20):
        assert abs(len(bench.input_bytes("uservisits", size, seed)) / size - 1) <= 0.02


# sha256 prefixes of input_bytes as it was when it built each input whole;
# 150,000 bytes is past one generator batch of either job (1024 lines)
_INPUT_DIGESTS = {
    ("wordcount", 0, 1): "e3b0c44298fc1c149afbf4c8996fb924",
    ("wordcount", 90, 1): "ea5ac3f5f6f9f2c8b8c0ccecb83a8e1e",
    ("wordcount", 90, 42): "b1a6b215fa98b4e8ce109c6da601bc5d",
    ("wordcount", 150000, 1): "b8cb49ad83ac888525e8b289ef79e6fe",
    ("wordcount", 150000, 42): "f91a84e1b066c9543a778469b9cbc9d6",
    ("wordcount", 400000, 1): "b09d13dcbc338ebc5c3e3f4e98dac99a",
    ("uservisits", 0, 1): "8c1d78a345f4b237f34550f5302f06bc",
    ("uservisits", 0, 42): "9855480267ed04ed1218c4bfd68f28ac",
    ("uservisits", 90, 1): "8c1d78a345f4b237f34550f5302f06bc",
    ("uservisits", 150000, 1): "b9c346a73422c64f30e5027ae4d64166",
    ("uservisits", 150000, 42): "93e46af2ef0ee4391334b86138c10f6a",
    ("uservisits", 400000, 42): "5857249efd98c1092b1cfba2c37beba4",
}


@pytest.mark.parametrize("job, size, seed", sorted(_INPUT_DIGESTS))
def test_input_pieces_join_to_the_whole_input(job, size, seed):
    pieces = list(bench.input_pieces(job, size, seed))
    joined = b"".join(pieces)
    assert hashlib.sha256(joined).hexdigest()[:32] == _INPUT_DIGESTS[job, size, seed]
    assert bench.input_bytes(job, size, seed) == joined
    assert (len(pieces) > 1) == (size >= 150_000)


def test_generate_tokens_into_dfs(small_cluster):
    meta = small_cluster.put_file("tok", token_lines(1000, vocab_size=10, seed=1))
    assert small_cluster.get_file("tok") == token_lines(1000, 10, 1)
    assert meta.size >= 1000


# ---------------------------------------------------------------------------
# matrix runs


def tiny_matrix(**kw):
    defaults = dict(
        job_id="wordcount",
        sizes=(4096,),
        worker_counts=(1, 2),
        repetitions=1,
        seed=13,
        chunk_size=1024,
        replication=2,
        num_reducers=2,
        executor="serial",
    )
    defaults.update(kw)
    return BenchMatrix(**defaults)


def test_matrix_cardinality(tmp_path):
    rows = run_matrix(tiny_matrix(), store_parent=str(tmp_path))
    assert len(rows) == 2
    assert [(r.size_bytes, r.workers, r.repetition) for r in rows] == [
        (4096, 1, 0), (4096, 2, 0)]
    assert all(not r.failed and r.elapsed_seconds > 0 for r in rows)
    data_len = len(token_lines(4096, 10_000, 13))
    chunks = -(-data_len // 1024)
    assert all(r.map_tasks == chunks and r.reduce_tasks == 2 for r in rows)
    assert list(tmp_path.iterdir()) == []


def test_matrix_alternates_worker_counts_within_a_size(monkeypatch, tmp_path):
    # a burst of host load then hits every size and worker count, not one
    # side of a ratio
    monkeypatch.setattr(bench, "_run_cell",
                        lambda cluster, matrix, size, map_tasks, workers, rep:
                        (rep, size, workers))
    rows = run_matrix(tiny_matrix(sizes=(10, 20), worker_counts=(1, 4), repetitions=2),
                      store_parent=str(tmp_path))
    assert rows == [(0, 10, 1), (0, 10, 4), (0, 20, 1), (0, 20, 4),
                    (1, 10, 1), (1, 10, 4), (1, 20, 1), (1, 20, 4)]


def test_matrix_stores_each_size_once(monkeypatch, tmp_path):
    inputs = []
    put_file = Cluster.put_file

    def counting_put_file(self, path, data, overwrite=False):
        if path.startswith("bench/input"):
            inputs.append(path)
        return put_file(self, path, data, overwrite)

    monkeypatch.setattr(Cluster, "put_file", counting_put_file)
    rows = run_matrix(tiny_matrix(sizes=(4096, 8192), repetitions=2),
                      store_parent=str(tmp_path))
    assert len(rows) == 8 and not any(r.failed for r in rows)
    assert inputs == ["bench/input-4096", "bench/input-8192"]


def test_matrix_repeated_size_gets_a_row_per_entry(tmp_path):
    rows = run_matrix(tiny_matrix(sizes=(4096, 4096)), store_parent=str(tmp_path))
    assert [(r.size_bytes, r.workers) for r in rows] == [
        (4096, 1), (4096, 2), (4096, 1), (4096, 2)]
    assert not any(r.failed for r in rows)


def test_matrix_store_removed_when_input_generation_raises(monkeypatch, tmp_path):
    def input_pieces(job, size, seed):
        yield token_lines(size, seed=seed)
        if size == 8192:  # after the piece has been stored
            raise RuntimeError("synthetic generator failure")

    monkeypatch.setattr(bench, "input_pieces", input_pieces)
    with pytest.raises(RuntimeError, match="synthetic"):
        run_matrix(tiny_matrix(sizes=(4096, 8192)), store_parent=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_matrix_csv_schema_and_roundtrip(tmp_path):
    csv_path = str(tmp_path / "rows.csv")
    rows = run_matrix(tiny_matrix(), csv_path=csv_path, store_parent=str(tmp_path))
    with open(csv_path) as f:
        header = f.readline().strip()
    assert header == ",".join(CSV_COLUMNS)
    assert header == "job,workers,size_bytes,repetition,elapsed_seconds," \
                     "map_tasks,reduce_tasks,seed,failed"
    back = read_rows_csv(csv_path)
    # every field survives; elapsed_seconds is written with 6 decimals
    assert back == [replace(r, elapsed_seconds=round(r.elapsed_seconds, 6))
                    for r in rows]


def test_matrix_nontiming_fields_deterministic(tmp_path):
    a = run_matrix(tiny_matrix(), store_parent=str(tmp_path))
    b = run_matrix(tiny_matrix(), store_parent=str(tmp_path))

    def stable(rows):
        return [(r.job_id, r.size_bytes, r.workers, r.repetition, r.map_tasks,
                 r.reduce_tasks, r.seed, r.failed) for r in rows]

    assert stable(a) == stable(b)


def test_failed_job_recorded_matrix_continues(tmp_path):
    def exploding_map(offset, line):
        raise RuntimeError("synthetic failure")

    register("failjob.map", exploding_map)
    register("failjob.reduce", lambda k, vs: [(k, vs[0])])
    rows = run_matrix(tiny_matrix(job_id="failjob"), store_parent=str(tmp_path))
    assert len(rows) == 2
    assert all(r.failed for r in rows)
    assert list(tmp_path.iterdir()) == []


def test_matrix_validation():
    with pytest.raises(InvalidConfig):
        BenchMatrix(sizes=())
    with pytest.raises(InvalidConfig):
        BenchMatrix(repetitions=0)
    with pytest.raises(InvalidConfig):
        BenchMatrix(sizes=(64 << 10, 0))
    with pytest.raises(InvalidConfig):
        BenchMatrix(worker_counts=(1, 0))
    with pytest.raises(InvalidConfig):
        BenchMatrix(worker_counts=())
    # library callers can pass any type: a str or a bool is not a count
    with pytest.raises(InvalidConfig, match="integers, got '2'"):
        BenchMatrix(worker_counts=("2",))
    with pytest.raises(InvalidConfig, match="integers, got '3'"):
        BenchMatrix(repetitions="3")
    with pytest.raises(InvalidConfig, match="integers, got True"):
        BenchMatrix(sizes=(True,))


# ---------------------------------------------------------------------------
# reports


def row(job="wordcount", size=1000, workers=1, rep=0, elapsed=1.0, failed=False):
    return BenchRow(job, size, workers, rep, elapsed, 4, 2, 42, failed)


def test_equal_times_speedup_one():
    rows = [row(workers=1, elapsed=2.0), row(workers=2, elapsed=2.0)]
    report = speedup_report(rows)
    [entry] = [e for e in report.entries if e.kind == "speedup" and e.workers == 2]
    assert entry.value == pytest.approx(1.0)


def test_speedup_matches_published_four_thread_ratio():
    # 469.34 s at 1 worker vs 147.031 s at 4 workers on the same input
    rows = [row(size=2_000_000_000, workers=1, elapsed=469.34),
            row(size=2_000_000_000, workers=4, elapsed=147.031)]
    report = speedup_report(rows)
    [entry] = [e for e in report.entries if e.kind == "speedup" and e.workers == 4]
    assert entry.value == pytest.approx(3.19, abs=0.005)
    assert entry.ideal == 4.0


def test_scaling_matches_published_size_ratio():
    # 79.355 s at 350 MB vs 416.952 s at 2 GB: 5.25x time for 5.71x data
    rows = [row(size=350_000_000, workers=1, elapsed=79.355),
            row(size=2_000_000_000, workers=1, elapsed=416.952)]
    report = speedup_report(rows)
    [entry] = [e for e in report.entries
               if e.kind == "scaling" and e.size_bytes == 2_000_000_000]
    assert entry.value == pytest.approx(5.25, abs=0.005)
    assert entry.ideal == pytest.approx(5.714, abs=0.001)
    assert not entry.flagged  # within 50% of ideal: "almost linear"


def test_median_of_repetitions_used():
    rows = [row(workers=1, rep=i, elapsed=e) for i, e in enumerate([1.0, 9.0, 2.0])]
    rows += [row(workers=2, rep=i, elapsed=e) for i, e in enumerate([1.0, 1.0, 1.0])]
    report = speedup_report(rows)
    [entry] = [e for e in report.entries if e.kind == "speedup" and e.workers == 2]
    assert entry.value == pytest.approx(2.0)  # median(1,9,2)=2 over median 1


def test_missing_one_worker_baseline_raises():
    with pytest.raises(ReportError):
        speedup_report([row(workers=2), row(workers=4)])


@pytest.mark.parametrize("rows, message", [
    ([], "no rows"),
    ([row(workers=1), row(workers=2), row(workers=2, size=2000)], "no successful 1-worker rows"),
    ([row(workers=1), row(workers=1, size=2000), row(workers=2, size=2000)],
     "at the smallest size 1000"),
], ids=["empty", "size-without-1-worker", "workers-without-smallest-size"])
def test_report_without_its_baseline_raises(rows, message):
    with pytest.raises(ReportError, match=message):
        speedup_report(rows)


def test_plot_of_no_rows_raises(tmp_path):
    with pytest.raises(ReportError, match="no rows"):
        emit_plot_data([], str(tmp_path / "plot.csv"))


def test_failed_rows_excluded_from_medians():
    rows = [row(workers=1, elapsed=2.0),
            row(workers=1, rep=1, elapsed=100.0, failed=True),
            row(workers=2, elapsed=1.0)]
    report = speedup_report(rows)
    [entry] = [e for e in report.entries if e.kind == "speedup" and e.workers == 2]
    assert entry.value == pytest.approx(2.0)


def test_deviating_cell_flagged():
    rows = [row(workers=1, elapsed=4.0), row(workers=4, elapsed=4.0)]
    report = speedup_report(rows, tolerance=0.5)
    [entry] = [e for e in report.entries if e.kind == "speedup" and e.workers == 4]
    assert entry.value == pytest.approx(1.0) and entry.flagged
    assert "DEVIATES" in report.render()


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
def test_tolerance_not_finite_or_negative_rejected(tolerance):
    # a speedup of 5.0 against an ideal of 2.0
    rows = [row(workers=1, elapsed=5.0), row(workers=2, elapsed=1.0)]
    with pytest.raises(InvalidConfig, match="tolerance"):
        speedup_report(rows, tolerance=tolerance)
    [entry] = [e for e in speedup_report(rows, tolerance=0.0).entries
               if e.kind == "speedup" and e.workers == 2]
    assert entry.value == pytest.approx(5.0) and entry.flagged


def test_report_render_golden():
    # two jobs, three sizes, workers 1, 2 and 4; rep 1 of every 2-worker
    # cell failed, and every row of wordcount at 4000 bytes x 4 workers did
    rows = [row(job, s, w, rep, scale * s / 1000 / w ** 0.8 + jitter,
                failed=(rep == 1 and w == 2)
                or (job == "wordcount" and s == 4000 and w == 4))
            for job, scale in (("uservisits", 1.0), ("wordcount", 3.0))
            for s in (1000, 2000, 4000)
            for w in (1, 2, 4)
            for rep, jitter in enumerate((0.0, 0.5, -0.25))]
    assert speedup_report(rows, tolerance=0.1).render() == (
        "job          kind     workers   size_bytes    ratio    ideal  flag\n"
        "uservisits   speedup        1         1000    1.000    1.000  ok\n"
        "uservisits   speedup        2         1000    2.225    2.000  DEVIATES\n"
        "uservisits   speedup        4         1000    3.031    4.000  DEVIATES\n"
        "uservisits   speedup        1         2000    1.000    1.000  ok\n"
        "uservisits   speedup        2         2000    1.954    2.000  ok\n"
        "uservisits   speedup        4         2000    3.031    4.000  DEVIATES\n"
        "uservisits   speedup        1         4000    1.000    1.000  ok\n"
        "uservisits   speedup        2         4000    1.841    2.000  ok\n"
        "uservisits   speedup        4         4000    3.031    4.000  DEVIATES\n"
        "uservisits   scaling        1         1000    1.000    1.000  ok\n"
        "uservisits   scaling        1         2000    2.000    2.000  ok\n"
        "uservisits   scaling        1         4000    4.000    4.000  ok\n"
        "uservisits   scaling        2         1000    1.000    1.000  ok\n"
        "uservisits   scaling        2         2000    2.278    2.000  DEVIATES\n"
        "uservisits   scaling        2         4000    4.835    4.000  DEVIATES\n"
        "uservisits   scaling        4         1000    1.000    1.000  ok\n"
        "uservisits   scaling        4         2000    2.000    2.000  ok\n"
        "uservisits   scaling        4         4000    4.000    4.000  ok\n"
        "wordcount    speedup        1         1000    1.000    1.000  ok\n"
        "wordcount    speedup        2         1000    1.877    2.000  ok\n"
        "wordcount    speedup        4         1000    3.031    4.000  DEVIATES\n"
        "wordcount    speedup        1         2000    1.000    1.000  ok\n"
        "wordcount    speedup        2         2000    1.807    2.000  ok\n"
        "wordcount    speedup        4         2000    3.031    4.000  DEVIATES\n"
        "wordcount    speedup        1         4000    1.000    1.000  ok\n"
        "wordcount    speedup        2         4000    1.773    2.000  DEVIATES\n"
        "wordcount    scaling        1         1000    1.000    1.000  ok\n"
        "wordcount    scaling        1         2000    2.000    2.000  ok\n"
        "wordcount    scaling        1         4000    4.000    4.000  ok\n"
        "wordcount    scaling        2         1000    1.000    1.000  ok\n"
        "wordcount    scaling        2         2000    2.078    2.000  ok\n"
        "wordcount    scaling        2         4000    4.235    4.000  ok\n"
        "wordcount    scaling        4         1000    1.000    1.000  ok\n"
        "wordcount    scaling        4         2000    2.000    2.000  ok"
    )


def test_plot_data_series_and_header(tmp_path):
    rows = [row(workers=w, size=s, rep=r, elapsed=w + s / 1000)
            for w in (1, 2) for s in (1000, 2000, 3000) for r in (0, 1)]
    path = str(tmp_path / "plot.csv")
    emit_plot_data(rows, path)
    # 2 series x 3 sizes; the median collapses the repetitions
    assert Path(path).read_text() == (
        "job,workers,size_bytes,elapsed_seconds\n"
        "wordcount,1,1000,2.000000\n"
        "wordcount,1,2000,3.000000\n"
        "wordcount,1,3000,4.000000\n"
        "wordcount,2,1000,3.000000\n"
        "wordcount,2,2000,4.000000\n"
        "wordcount,2,3000,5.000000\n"
    )
    emit_plot_data(rows, str(tmp_path / "plot2.csv"))
    assert Path(path).read_text() == (tmp_path / "plot2.csv").read_text()


@pytest.mark.slow
def test_more_workers_faster_at_scale(tmp_path):
    # direction of effect only; the strict 4-worker speedup bound is an
    # acceptance criterion gated on host core count
    matrix = tiny_matrix(sizes=(64 << 20,), worker_counts=(1, 4), repetitions=3,
                         chunk_size=16 << 20, executor="processes")
    rows = run_matrix(matrix, store_parent=str(tmp_path))
    report = speedup_report(rows)
    [entry] = [e for e in report.entries if e.kind == "speedup" and e.workers == 4]
    # another load on the host can erase the gain; say what the host had
    medians = {w: s for (_, _, w), s in cell_medians(rows).items()}
    assert entry.value > 1.0, (
        f"speedup {entry.value:.3f}: median {medians[1]:.3f} s at 1 worker, "
        f"{medians[4]:.3f} s at 4; usable CPUs {len(os.sched_getaffinity(0))}, "
        f"load average {os.getloadavg()}")


def test_parse_size_units():
    assert parse_size("4096") == 4096
    assert parse_size(123) == 123
    assert parse_size("64MiB") == 64 << 20
    assert parse_size("350MB") == 350 * 10**6
    assert parse_size("2GB") == 2 * 10**9
    assert parse_size("1.5KiB") == 1536
    for bad in ("infKB", "nanMiB", "1e400KB"):
        with pytest.raises(ValueError, match="not a finite number"):
            parse_size(bad)
