"""Benchmark harness: input-size scaling and worker-count scaling.

A matrix stores each size's input once on one disk-backed cluster, and
each cell (repetition x size x workers) times only its job, not input
generation or storage. Absolute seconds are hardware-bound, so the report
reduces measurements to ratios: speedup(w) against the 1-worker median and
scaling(s) against the smallest-size median, compared with the ideal
linear ratios.
"""

from __future__ import annotations

import csv
import math
import os
import random
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Iterator

from .dfs import Cluster, ClusterConfig
from .errors import InvalidConfig, JobFailed, ReportError, require_ints
from .jobs import job_spec, uservisits_batches
from .jobtypes import RunOptions
from .master import submit_job

PLOT_COLUMNS = ("job", "workers", "size_bytes", "elapsed_seconds")

# desk-scale stand-ins for the 350 MB / 1 GB / 2 GB originals
DEFAULT_SIZES = (64 << 20, 256 << 20, 512 << 20)
FULL_SIZES = (350 * 10**6, 10**9, 2 * 10**9)


# ---------------------------------------------------------------------------
# input generation

TOKENS_PER_LINE = 12


def token_pieces(size_bytes: int, vocab_size: int = 10_000, seed: int = 42) -> Iterator[bytes]:
    """``token_lines`` in pieces of whole lines, one per batch of 1024
    lines drawn, and the finishing line."""
    if size_bytes <= 0:
        return
    rng = random.Random(seed)
    vocab = [f"tok{i:05d}" for i in range(max(1, vocab_size))]
    total = 0
    done = False
    while not done:
        words = rng.choices(vocab, k=TOKENS_PER_LINE * 1024)
        out = []
        for j in range(0, len(words), TOKENS_PER_LINE):
            line = " ".join(words[j : j + TOKENS_PER_LINE]) + "\n"
            if total + len(line) > size_bytes:
                done = True
                break
            out.append(line)
            total += len(line)
        if out:
            yield "".join(out).encode()
    # finish token by token so the overshoot is at most one token
    tail = []
    while total < size_bytes:
        token = vocab[rng.randrange(len(vocab))]
        tail.append(token)
        total += len(token) + 1
    if tail:
        yield (" ".join(tail) + "\n").encode()


def token_lines(size_bytes: int, vocab_size: int = 10_000, seed: int = 42) -> bytes:
    """Pseudo-random token stream of roughly ``size_bytes`` (within one
    token of the target); lines stay far below 4096 bytes."""
    return b"".join(token_pieces(size_bytes, vocab_size, seed))


def input_pieces(job_id: str, size_bytes: int, seed: int) -> Iterator[bytes]:
    """The job's benchmark input of about ``size_bytes``, in pieces of
    about 100 KB, so no caller needs the whole input at once."""
    if job_id == "uservisits":
        # rows average 89.5 bytes, measured over seeds 1, 7 and 42
        return uservisits_batches(max(1, size_bytes // 90), seed)
    return token_pieces(size_bytes, seed=seed)


def input_bytes(job_id: str, size_bytes: int, seed: int) -> bytes:
    return b"".join(input_pieces(job_id, size_bytes, seed))


# ---------------------------------------------------------------------------
# matrix


@dataclass(frozen=True)
class BenchMatrix:
    job_id: str = "wordcount"
    sizes: tuple[int, ...] = DEFAULT_SIZES
    worker_counts: tuple[int, ...] = (1, 2, 4)
    repetitions: int = 3
    seed: int = 42
    chunk_size: int = 16 << 20
    replication: int = 2
    num_reducers: int = 2
    executor: str = "processes"

    def __post_init__(self):
        require_ints("matrix sizes and counts", *self.sizes, *self.worker_counts,
                     self.repetitions, self.seed, self.chunk_size, self.replication,
                     self.num_reducers)
        for name in ("sizes", "worker_counts"):
            values = getattr(self, name)
            if not values or min(values) < 1:
                raise InvalidConfig(
                    f"{name} must be non-empty and each >= 1, got {list(values)}")
        for name in ("repetitions", "num_reducers"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1, got {getattr(self, name)}")
        self.cluster_config()  # checks chunk_size and replication before any cell runs

    def cluster_config(self) -> ClusterConfig:
        """The matrix store's shape: at least 4 nodes, and one per worker."""
        return ClusterConfig(num_nodes=max(4, max(self.worker_counts)), chunk_size=self.chunk_size,
                             replication=self.replication, seed=self.seed)


@dataclass(frozen=True)
class BenchRow:
    job_id: str
    size_bytes: int
    workers: int
    repetition: int
    elapsed_seconds: float
    map_tasks: int
    reduce_tasks: int
    seed: int
    failed: bool = False


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"failed must be true or false, got {text!r}")
    return text == "true"


# the rows CSV schema: (column, BenchRow field, parser), in column order
_ROW_SCHEMA = (
    ("job", "job_id", str),
    ("workers", "workers", int),
    ("size_bytes", "size_bytes", int),
    ("repetition", "repetition", int),
    ("elapsed_seconds", "elapsed_seconds", float),
    ("map_tasks", "map_tasks", int),
    ("reduce_tasks", "reduce_tasks", int),
    ("seed", "seed", int),
    ("failed", "failed", _flag),
)
CSV_COLUMNS = tuple(column for column, _, _ in _ROW_SCHEMA)
# how a field is written, by its parser; the rest are written with str
_WRITERS = {float: "{:.6f}".format, _flag: lambda b: "true" if b else "false"}


def run_matrix(
    matrix: BenchMatrix,
    csv_path: str | None = None,
    store_parent: str | None = None,
    progress=None,
) -> list[BenchRow]:
    """Run every cell sequentially and return the measured rows, appending
    them to ``csv_path`` if given. One disk store under ``store_parent``
    holds each distinct size's input, stored once before the first cell,
    and is removed when the matrix ends. Cells run in (repetition, size,
    workers) order, so a burst of host load does not land on one side of a
    ratio. A failed job is recorded with failed=True and the matrix continues."""
    with tempfile.TemporaryDirectory(prefix="bench-", dir=store_parent,
                                     ignore_cleanup_errors=True) as root:
        cluster = Cluster.open_disk(root, matrix.cluster_config())
        map_tasks = {size: len(cluster.put_file(
            f"bench/input-{size}", input_pieces(matrix.job_id, size, matrix.seed)).chunks)
            for size in dict.fromkeys(matrix.sizes)}
        rows = []
        for rep in range(matrix.repetitions):
            for size in matrix.sizes:
                for workers in matrix.worker_counts:
                    rows.append(_run_cell(cluster, matrix, size, map_tasks[size],
                                          workers, rep))
                    if progress is not None:
                        progress(rows[-1])
    if csv_path is not None:
        append_rows_csv(rows, csv_path)
    return rows


def _run_cell(
    cluster: Cluster, matrix: BenchMatrix, size: int, map_tasks: int,
    workers: int, rep: int,
) -> BenchRow:
    job_id = f"bench-{matrix.job_id}-{size}-{workers}w-r{rep}"
    spec = job_spec(matrix.job_id, job_id, f"bench/input-{size}", f"bench/{job_id}",
                    matrix.num_reducers)
    options = RunOptions(workers=workers, executor=matrix.executor)
    failed = False
    started = time.perf_counter()
    try:
        submit_job(cluster, spec, options)
    except JobFailed:
        failed = True
    elapsed = time.perf_counter() - started
    return BenchRow(
        job_id=matrix.job_id,
        size_bytes=size,
        workers=workers,
        repetition=rep,
        elapsed_seconds=elapsed,
        map_tasks=map_tasks,
        reduce_tasks=matrix.num_reducers,
        seed=matrix.seed,
        failed=failed,
    )


# ---------------------------------------------------------------------------
# CSV io


def append_rows_csv(rows: list[BenchRow], path: str) -> None:
    new = not os.path.exists(path)
    with open(path, "a", newline="") as f:
        w = csv.writer(f)
        if new:
            w.writerow(CSV_COLUMNS)
        for r in rows:
            w.writerow(_WRITERS.get(parse, str)(getattr(r, name))
                       for _, name, parse in _ROW_SCHEMA)


def read_rows_csv(path: str) -> list[BenchRow]:
    """Rows of a rows CSV; a missing column or bad value raises InvalidConfig.
    Each row must hold what run_matrix writes: finite elapsed seconds above
    0, and a size and worker count of at least 1, which the ratios divide by."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise InvalidConfig(f"rows CSV {path!r} has no {missing[0]!r} column")
        rows = []
        try:
            for rec in reader:
                row = BenchRow(**{name: parse(rec[column])
                                  for column, name, parse in _ROW_SCHEMA})
                if not (math.isfinite(row.elapsed_seconds) and row.elapsed_seconds > 0):
                    raise ValueError(f"elapsed_seconds must be finite and > 0, "
                                     f"got {row.elapsed_seconds}")
                if min(row.size_bytes, row.workers) < 1:
                    raise ValueError(f"size_bytes and workers must be >= 1, "
                                     f"got {row.size_bytes} and {row.workers}")
                rows.append(row)
        except (TypeError, ValueError) as e:  # a short row gives None values
            raise InvalidConfig(f"rows CSV {path!r} line {reader.line_num}: {e}") from None
    return rows


# ---------------------------------------------------------------------------
# reporting


@dataclass(frozen=True)
class ReportEntry:
    job_id: str
    kind: str  # "speedup" | "scaling"
    workers: int
    size_bytes: int
    value: float
    ideal: float
    flagged: bool


@dataclass
class Report:
    entries: list[ReportEntry] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"{'job':<12} {'kind':<8} {'workers':>7} {'size_bytes':>12} "
            f"{'ratio':>8} {'ideal':>8}  flag"
        ]
        for e in self.entries:
            lines.append(
                f"{e.job_id:<12} {e.kind:<8} {e.workers:>7} {e.size_bytes:>12} "
                f"{e.value:>8.3f} {e.ideal:>8.3f}  {'DEVIATES' if e.flagged else 'ok'}"
            )
        return "\n".join(lines)


def cell_medians(rows: list[BenchRow]) -> dict[tuple[str, int, int], float]:
    """(job, size, workers) -> median elapsed of the cell's successful rows.
    A cell with no successful row is left out."""
    times: dict[tuple[str, int, int], list[float]] = {}
    for r in rows:
        if not r.failed:
            times.setdefault((r.job_id, r.size_bytes, r.workers), []).append(
                r.elapsed_seconds)
    return {cell: statistics.median(ts) for cell, ts in times.items()}


def speedup_report(rows: list[BenchRow], tolerance: float = 0.5) -> Report:
    """Speedup and size-scaling ratios vs their ideals.

    speedup(w) = median elapsed at 1 worker / median elapsed at w workers
    (per size); scaling(s) = median elapsed at size s / median elapsed at
    the smallest size (per worker count). Cells with no successful row are
    skipped, but a missing baseline raises ReportError. Entries deviating
    from the ideal ratio by more than ``tolerance`` (relative) are flagged;
    a tolerance that is not finite or is below 0 raises InvalidConfig.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise InvalidConfig(f"tolerance must be finite and >= 0, got {tolerance}")
    if not rows:
        raise ReportError("no rows to report on")
    medians = cell_medians(rows)
    report = Report()

    def add(job, kind, workers, size, value, ideal):
        report.entries.append(ReportEntry(job, kind, workers, size, value, ideal,
                                          abs(value - ideal) > tolerance * ideal))

    for job in sorted({r.job_id for r in rows}):
        sizes = sorted({r.size_bytes for r in rows if r.job_id == job})
        workers = sorted({r.workers for r in rows if r.job_id == job})
        if 1 not in workers:
            raise ReportError(f"job {job!r} has no 1-worker baseline rows")
        for size in sizes:
            base = medians.get((job, size, 1))
            if base is None:
                raise ReportError(
                    f"job {job!r} size {size} has no successful 1-worker rows")
            for w in workers:
                if (job, size, w) in medians:
                    add(job, "speedup", w, size, base / medians[job, size, w], float(w))

        smallest = sizes[0]
        for w in workers:
            base = medians.get((job, smallest, w))
            if base is None:
                raise ReportError(
                    f"job {job!r} workers {w} has no successful rows at the "
                    f"smallest size {smallest}")
            for size in sizes:
                if (job, size, w) in medians:
                    add(job, "scaling", w, size, medians[job, size, w] / base,
                        size / smallest)
    return report


def emit_plot_data(rows: list[BenchRow], path: str) -> None:
    """Plot-ready CSV: one series per (job, workers), x=size, y=median
    elapsed; stable order and content for identical input rows."""
    if not rows:
        raise ReportError("no rows to plot")
    medians = cell_medians(rows)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(PLOT_COLUMNS)
        for job, size, workers in sorted(medians, key=lambda c: (c[0], c[2], c[1])):
            w.writerow((job, workers, size, f"{medians[job, size, workers]:.6f}"))


# ---------------------------------------------------------------------------


def parse_size(text) -> int:
    """'64MiB' / '350MB' / '4096' -> bytes."""
    s = str(text).strip()
    units = {
        "b": 1,
        "kb": 10**3, "mb": 10**6, "gb": 10**9,
        "kib": 1 << 10, "mib": 1 << 20, "gib": 1 << 30,
        "k": 1 << 10, "m": 1 << 20, "g": 1 << 30,
    }
    low = s.lower()
    for unit in sorted(units, key=len, reverse=True):
        if low.endswith(unit):
            value = float(low[: -len(unit)].strip()) * units[unit]
            if not math.isfinite(value):  # int() would raise OverflowError on inf
                raise ValueError(f"size {s!r} is not a finite number")
            return int(value)
    return int(s)
