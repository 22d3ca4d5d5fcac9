"""The two built-in jobs, ``JOBS``: word frequency counting and per-source-IP
revenue aggregation over pipe-delimited user-visit records.

Record mappers take (byte offset, line bytes) and return a list of (key,
value) byte pairs; reducers and combiners take (key, ordered value list) and
return a list of output pairs. Both mappers also have a split form, which
takes the split's whole iterator of (offset, bytes) blocks of lines and the
job's combiner and yields (key, values) groups, under the contract in
``registry``. Counts are serialized as decimal text. A visit's revenue
crosses the shuffle as its field's own bytes, which the mapper has checked
with ``float``; the reducer parses and sums them in shuffle order and writes
the sum as a shortest round-trip decimal, so outputs are byte-reproducible.
The summing reducer (also the combiner) counts an all-``b"1"`` value list,
as a job without a combiner ships it, without parsing it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable, Iterator

from . import registry
from .errors import SkipRecord
from .jobtypes import JobSpec
from .registry import register

ONE = b"1"


# ---------------------------------------------------------------------------
# wordcount


def wordcount_map(offset: int, line: bytes) -> list[tuple[bytes, bytes]]:
    """One (token, 1) pair per token occurrence, in order of appearance."""
    del offset
    return [(token, ONE) for token in line.split()]


def wordcount_reduce(key: bytes, values: list[bytes]) -> list[tuple[bytes, bytes]]:
    """Sum the decimal counts. A list of only ``b"1"``, which is what an
    uncombined wordcount ships per occurrence, is counted at C speed
    without parsing; the sum is the same."""
    if values.count(ONE) == len(values):
        return [(key, str(len(values)).encode())]
    try:
        total = sum(map(int, values))
    except ValueError:
        for bad in values:
            try:
                int(bad)
            except ValueError:
                raise ValueError(
                    f"count {bad!r} for token {key!r} is not an integer"
                ) from None
    return [(key, str(total).encode())]


# summing integer counts is associative and commutative, so the reducer
# doubles as the combiner
wordcount_combine = wordcount_reduce


def wordcount_split_map(
    blocks: Iterable[tuple[int, bytes]], combiner: Callable | None
) -> Iterator[tuple[bytes, list[bytes]]]:
    """Split form of ``wordcount_map``: count the whole split's tokens
    (in-mapper combining), one ``split`` per block, then yield one group
    per distinct token, its count pre-combined if the combiner is
    ``wordcount_combine``.

    A token never spans lines, so a block's tokens are its lines' tokens in
    order. The groups are yielded lazily, so no more of them is alive than
    the buffer holds."""
    counts: Counter[bytes] = Counter()
    for _, block in blocks:
        counts.update(block.split())
    if combiner is wordcount_combine:
        return ((k, [str(n).encode()]) for k, n in counts.items())
    return ((k, [ONE] * n) for k, n in counts.items())


# ---------------------------------------------------------------------------
# uservisits


def uservisits_map(offset: int, line: bytes) -> list[tuple[bytes, bytes]]:
    """Emit (source IP, revenue field bytes) from a pipe-delimited visit
    record; the field is shipped as written, once ``float`` accepts it.

    Malformed lines (fewer than 3 fields, or a revenue column that is not a
    finite number) are skipped and counted rather than failing the job.
    """
    del offset
    fields = line.split(b"|")
    if len(fields) < 3:
        raise SkipRecord("fewer than 3 fields")
    try:
        revenue = float(fields[2])
    except ValueError:
        raise SkipRecord("revenue does not parse") from None
    if not math.isfinite(revenue):
        raise SkipRecord("revenue is not finite")
    return [(fields[0], fields[2])]


def uservisits_split_map(
    blocks: Iterable[tuple[int, bytes]], combiner: Callable | None
) -> Iterator[tuple[bytes, list[bytes]]]:
    """Split form of ``uservisits_map``: the same checks in one loop over
    the split's rows, block by block, yielding the groups
    ``per_record(uservisits_map)`` yields (per key, in emission order, every
    ``registry.PER_RECORD_WINDOW`` values), so a map task holds no more
    than on the record path. Returns the number of rows skipped."""
    del combiner
    window = registry.PER_RECORD_WINDOW
    groups: dict[bytes, list[bytes]] = {}
    skipped = pending = 0
    for _, block in blocks:
        for line in block.split(b"\n"):
            fields = line.split(b"|", 3)  # fields 0-2 as a full split gives them
            if len(fields) < 3:
                skipped += 1
                continue
            try:
                revenue = float(fields[2])
            except ValueError:
                skipped += 1
                continue
            if not math.isfinite(revenue):
                skipped += 1
                continue
            vals = groups.get(fields[0])
            if vals is None:
                groups[fields[0]] = [fields[2]]
            else:
                vals.append(fields[2])
            pending += 1
            if pending >= window:
                yield from groups.items()
                groups, pending = {}, 0
    yield from groups.items()
    return skipped


def uservisits_reduce(key: bytes, values: list[bytes]) -> list[tuple[bytes, bytes]]:
    """Left-to-right sum over the (deterministic) shuffle order. Not
    ``sum()``: from Python 3.12 it adds floats with compensation, so the
    part bytes would depend on the interpreter."""
    total = 0.0
    for v in values:
        total += float(v)
    return [(key, repr(total).encode())]


# ---------------------------------------------------------------------------
# synthetic uservisits data

_IP_POOL_SIZE = 211  # prime, small enough that keys repeat within a few rows
_AGENTS = tuple(f"Mozilla/5.0 (agent-{i:02d})" for i in range(20))
_WORDS = tuple(f"keyword{i:03d}" for i in range(50))


def uservisits_batches(rows: int, seed: int) -> Iterator[bytes]:
    """``uservisits_lines`` in pieces of up to 1024 rows."""
    import random

    rng = random.Random(seed)
    pool = [f"10.{i // 256}.{i % 256}.{rng.randrange(256)}" for i in range(_IP_POOL_SIZE)]
    for first in range(0, rows, 1024):
        out = []
        for _ in range(min(rows - first, 1024)):
            ip = pool[rng.randrange(_IP_POOL_SIZE)]
            dest = f"dest-{rng.randrange(500):03d}.example.com/page-{rng.randrange(10000):04d}"
            revenue = rng.randrange(0, 50000) / 100.0
            agent = _AGENTS[rng.randrange(len(_AGENTS))]
            word = _WORDS[rng.randrange(len(_WORDS))]
            duration = rng.randrange(0, 36000)
            out.append(f"{ip}|{dest}|{revenue:.2f}|{agent}|{word}|{duration}\n")
        yield "".join(out).encode()


def uservisits_lines(rows: int, seed: int) -> bytes:
    """Deterministic pipe-delimited visit rows, one per line."""
    return b"".join(uservisits_batches(rows, seed))


# ---------------------------------------------------------------------------

JOBS = ("wordcount", "uservisits")


def job_spec(job: str, job_id: str, input_path: str, output_path: str,
             num_reducers: int, combine: bool = True) -> JobSpec:
    """The JobSpec of built-in job ``job``: its mapper and reducer, and
    wordcount's combiner unless ``combine`` is false."""
    return JobSpec(
        job_id=job_id,
        input_path=input_path,
        output_path=output_path,
        mapper_id=f"{job}.map",
        reducer_id=f"{job}.reduce",
        combiner_id="wordcount.combine" if combine and job == "wordcount" else None,
        num_reducers=num_reducers,
    )


register("wordcount.map", wordcount_map, split=wordcount_split_map)
register("wordcount.reduce", wordcount_reduce)
register("wordcount.combine", wordcount_combine, combiner_safe=True)
register("uservisits.map", uservisits_map, split=uservisits_split_map)
register("uservisits.reduce", uservisits_reduce)
