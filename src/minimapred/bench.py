"""Benchmark harness: input-size scaling and worker-count scaling.

Each matrix cell (size x workers x repetition) runs an isolated job on a
fresh disk-backed cluster; only the job execution is timed, not input
generation. Absolute seconds are hardware-bound, so the report reduces
measurements to ratios: speedup(w) against the 1-worker median and
scaling(s) against the smallest-size median, compared with the ideal
linear ratios.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

from .dfs import Cluster, ClusterConfig
from .errors import InvalidConfig, JobFailed, ReportError
from .jobs import uservisits_lines
from .jobtypes import JobSpec, RunOptions
from .master import submit_job

CSV_COLUMNS = (
    "job",
    "workers",
    "size_bytes",
    "repetition",
    "elapsed_seconds",
    "map_tasks",
    "reduce_tasks",
    "seed",
    "failed",
)

PLOT_COLUMNS = ("job", "workers", "size_bytes", "elapsed_seconds")

# desk-scale stand-ins for the 350 MB / 1 GB / 2 GB originals
DEFAULT_SIZES = (64 << 20, 256 << 20, 512 << 20)
FULL_SIZES = (350 * 10**6, 10**9, 2 * 10**9)


# ---------------------------------------------------------------------------
# input generation


def token_lines(
    size_bytes: int, vocab_size: int = 10_000, seed: int = 42,
    tokens_per_line: int = 12,
) -> bytes:
    """Pseudo-random token stream of roughly ``size_bytes`` (within one
    token of the target); lines stay far below 4096 bytes."""
    if size_bytes <= 0:
        return b""
    rng = random.Random(seed)
    vocab = [f"tok{i:05d}" for i in range(max(1, vocab_size))]
    out = []
    total = 0
    done = False
    while not done:
        words = rng.choices(vocab, k=tokens_per_line * 1024)
        for j in range(0, len(words), tokens_per_line):
            line = " ".join(words[j : j + tokens_per_line]) + "\n"
            if total + len(line) > size_bytes:
                done = True
                break
            out.append(line)
            total += len(line)
    # finish token by token so the overshoot is at most one token
    tail = []
    while total < size_bytes:
        token = vocab[rng.randrange(len(vocab))]
        tail.append(token)
        total += len(token) + 1
    if tail:
        out.append(" ".join(tail) + "\n")
    return "".join(out).encode()


def input_bytes(job_id: str, size_bytes: int, vocab_size: int, seed: int) -> bytes:
    if job_id == "uservisits":
        return uservisits_lines(max(1, size_bytes // 75), seed)
    return token_lines(size_bytes, vocab_size, seed)


# ---------------------------------------------------------------------------
# matrix


# matrix config key -> BenchMatrix field
_CONFIG_FIELDS = {
    "job": "job_id", "sizes": "sizes", "workers": "worker_counts",
    "repetitions": "repetitions", "seed": "seed", "chunk_size": "chunk_size",
    "replication": "replication", "reducers": "num_reducers",
    "vocab_size": "vocab_size", "executor": "executor",
}


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
    vocab_size: int = 10_000
    executor: str = "processes"

    def __post_init__(self):
        if not self.sizes or not self.worker_counts:
            raise ReportError("sizes and worker_counts must be non-empty")
        if self.repetitions < 1:
            raise ReportError("repetitions must be >= 1")

    @classmethod
    def from_config(cls, path: str) -> "BenchMatrix":
        """Read a JSON matrix config; a key it leaves out keeps the field's
        default. Malformed JSON, an unknown key or a bad size or worker list
        raise InvalidConfig."""
        with open(path) as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as e:
                raise InvalidConfig(f"matrix config {path!r} is not JSON: {e}") from None
        if not isinstance(raw, dict):
            raise InvalidConfig(f"matrix config {path!r} must be a JSON object")
        unknown = sorted(set(raw) - set(_CONFIG_FIELDS))
        if unknown:
            raise InvalidConfig(f"unknown matrix config keys {unknown}; "
                                f"expected some of {sorted(_CONFIG_FIELDS)}")
        given = {_CONFIG_FIELDS[k]: v for k, v in raw.items()}
        try:
            if "sizes" in given:
                given["sizes"] = tuple(parse_size(v) for v in given["sizes"])
            if "chunk_size" in given:
                given["chunk_size"] = parse_size(given["chunk_size"])
            if "worker_counts" in given:
                given["worker_counts"] = tuple(given["worker_counts"])
        except (TypeError, ValueError) as e:
            raise InvalidConfig(f"bad value in matrix config {path!r}: {e}") from None
        return cls(**given)


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


def default_combiner(job_id: str) -> str | None:
    return "wordcount.combine" if job_id == "wordcount" else None


def run_matrix(
    matrix: BenchMatrix,
    csv_path: str | None = None,
    store_parent: str | None = None,
    progress=None,
) -> list[BenchRow]:
    """Run every (size, workers, repetition) cell sequentially and return
    the measured rows, appending them to ``csv_path`` if given. A failed job
    is recorded with failed=True and the matrix continues."""
    rows = []
    nodes = max(4, max(matrix.worker_counts))
    for size in matrix.sizes:
        data = input_bytes(matrix.job_id, size, matrix.vocab_size, matrix.seed)
        for workers in matrix.worker_counts:
            for rep in range(matrix.repetitions):
                row = _run_cell(matrix, nodes, size, data, workers, rep, store_parent)
                rows.append(row)
                if progress is not None:
                    progress(row)
    if csv_path is not None:
        append_rows_csv(rows, csv_path)
    return rows


def _run_cell(
    matrix: BenchMatrix, nodes: int, size: int, data: bytes,
    workers: int, rep: int, store_parent: str | None,
) -> BenchRow:
    root = tempfile.mkdtemp(prefix="bench-", dir=store_parent)
    try:
        cluster = Cluster.open_disk(
            root,
            ClusterConfig(
                num_nodes=nodes,
                chunk_size=matrix.chunk_size,
                replication=matrix.replication,
                seed=matrix.seed,
            ),
        )
        meta = cluster.put_file("bench/input", data)
        spec = JobSpec(
            job_id=f"bench-{matrix.job_id}-{size}-{workers}w-r{rep}",
            input_path="bench/input",
            output_path="bench/out",
            mapper_id=f"{matrix.job_id}.map",
            reducer_id=f"{matrix.job_id}.reduce",
            combiner_id=default_combiner(matrix.job_id),
            num_reducers=matrix.num_reducers,
        )
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
            map_tasks=len(meta.chunks),
            reduce_tasks=matrix.num_reducers,
            seed=matrix.seed,
            failed=failed,
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------------
# CSV io


def append_rows_csv(rows: list[BenchRow], path: str) -> None:
    import os

    new = not os.path.exists(path)
    with open(path, "a", newline="") as f:
        w = csv.writer(f)
        if new:
            w.writerow(CSV_COLUMNS)
        for r in rows:
            w.writerow(
                (
                    r.job_id,
                    r.workers,
                    r.size_bytes,
                    r.repetition,
                    f"{r.elapsed_seconds:.6f}",
                    r.map_tasks,
                    r.reduce_tasks,
                    r.seed,
                    str(r.failed).lower(),
                )
            )


def read_rows_csv(path: str) -> list[BenchRow]:
    rows = []
    with open(path, newline="") as f:
        for rec in csv.DictReader(f):
            rows.append(
                BenchRow(
                    job_id=rec["job"],
                    size_bytes=int(rec["size_bytes"]),
                    workers=int(rec["workers"]),
                    repetition=int(rec["repetition"]),
                    elapsed_seconds=float(rec["elapsed_seconds"]),
                    map_tasks=int(rec["map_tasks"]),
                    reduce_tasks=int(rec["reduce_tasks"]),
                    seed=int(rec["seed"]),
                    failed=rec["failed"] == "true",
                )
            )
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


def _median_elapsed(rows: list[BenchRow]) -> float | None:
    ok = [r.elapsed_seconds for r in rows if not r.failed]
    return statistics.median(ok) if ok else None


def speedup_report(rows: list[BenchRow], tolerance: float = 0.5) -> Report:
    """Speedup and size-scaling ratios vs their ideals.

    speedup(w) = median elapsed at 1 worker / median elapsed at w workers
    (per size); scaling(s) = median elapsed at size s / median elapsed at
    the smallest size (per worker count). Entries deviating from the ideal
    ratio by more than ``tolerance`` (relative) are flagged.
    """
    if not rows:
        raise ReportError("no rows to report on")
    report = Report()
    for job in sorted({r.job_id for r in rows}):
        jrows = [r for r in rows if r.job_id == job]
        sizes = sorted({r.size_bytes for r in jrows})
        workers = sorted({r.workers for r in jrows})

        if 1 not in workers:
            raise ReportError(f"job {job!r} has no 1-worker baseline rows")
        for size in sizes:
            base = _median_elapsed(
                [r for r in jrows if r.size_bytes == size and r.workers == 1]
            )
            if base is None:
                raise ReportError(
                    f"job {job!r} size {size} has no successful 1-worker rows"
                )
            for w in workers:
                med = _median_elapsed(
                    [r for r in jrows if r.size_bytes == size and r.workers == w]
                )
                if med is None:
                    continue
                value, ideal = base / med, float(w)
                report.entries.append(
                    ReportEntry(job, "speedup", w, size, value, ideal,
                                abs(value - ideal) > tolerance * ideal)
                )

        smallest = sizes[0]
        for w in workers:
            base = _median_elapsed(
                [r for r in jrows if r.size_bytes == smallest and r.workers == w]
            )
            if base is None:
                raise ReportError(
                    f"job {job!r} workers {w} has no successful rows at the "
                    f"smallest size {smallest}"
                )
            for size in sizes:
                med = _median_elapsed(
                    [r for r in jrows if r.size_bytes == size and r.workers == w]
                )
                if med is None:
                    continue
                value, ideal = med / base, size / smallest
                report.entries.append(
                    ReportEntry(job, "scaling", w, size, value, ideal,
                                abs(value - ideal) > tolerance * ideal)
                )
    return report


def emit_plot_data(rows: list[BenchRow], path: str) -> None:
    """Plot-ready CSV: one series per (job, workers), x=size, y=median
    elapsed; stable order and content for identical input rows."""
    if not rows:
        raise ReportError("no rows to plot")
    cells: dict[tuple[str, int, int], list[BenchRow]] = {}
    for r in rows:
        cells.setdefault((r.job_id, r.workers, r.size_bytes), []).append(r)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(PLOT_COLUMNS)
        for (job, workers, size) in sorted(cells):
            med = _median_elapsed(cells[(job, workers, size)])
            if med is not None:
                w.writerow((job, workers, size, f"{med:.6f}"))


# ---------------------------------------------------------------------------


def parse_size(text) -> int:
    """'64MiB' / '350MB' / '4096' -> bytes."""
    if isinstance(text, int):
        return text
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
            number = low[: -len(unit)].strip()
            return int(float(number) * units[unit])
    return int(s)
