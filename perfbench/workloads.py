"""Workload definitions, seeded input generators and the correctness gate.

Inputs are generated here from the workload seed, independently of the
engine's own generators, and each workload's expected part files are
computed here from the generated input: wordcount from a ``Counter`` over
``data.split()``, uservisits from file-order left-to-right float sums of
the well-formed rows. Parts are compared byte for byte; keys are assigned
to parts with 64-bit FNV-1a modulo the reducer count, the partitioning the
engine documents.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

MIB = 1 << 20

# Cluster shape shared by every workload.
NUM_NODES = 4
REPLICATION = 2
CHUNK_SIZE = 4 * MIB
NUM_REDUCERS = 2
CLUSTER_SEED = 42

VOCAB = 10_000
TOKENS_PER_LINE = 12
MALFORMED_EVERY = 97  # every 97th uservisits row is malformed
# wc-shuffle's map tasks emit about 466k and 233k pairs (its 4 MiB and
# 2 MiB splits), more than this, so each one spills and merges its spills
# on the map side.
SHUFFLE_SPILL_PAIRS = 192 * 1024


@dataclass(frozen=True)
class Workload:
    name: str
    job: str  # "wordcount" | "uservisits"
    size: int  # input bytes (wordcount) or rows (uservisits)
    executor: str
    store: str  # "disk" | "memory"
    combiner: bool = False
    workers: int | None = None  # None: one worker per node
    spill_pairs: int | None = None  # map-side pairs buffered per spill; None: engine default
    fail_node_after: tuple[int, str] | None = None  # (node, task id)


# Why each workload was chosen, and which layers it loads or bypasses, is
# recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wc-combine", "wordcount", 8 * MIB, "serial", "disk", combiner=True,
        ),
        Workload(
            "wc-shuffle", "wordcount", 6 * MIB, "serial", "memory",
            spill_pairs=SHUFFLE_SPILL_PAIRS,
        ),
        Workload(
            "uv-parallel", "uservisits", 400_000, "processes", "disk", workers=2,
        ),
        # node 2 holds a completed map when reduce-0 completes, so its death
        # re-executes that map and makes the reducer it ran report stale
        Workload(
            "wc-failover", "wordcount", 8 * MIB, "serial", "disk", combiner=True,
            fail_node_after=(2, "reduce-0"),
        ),
    )
}


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Input:
    data: bytes
    expected_parts: list[bytes]
    malformed: int  # rows the mapper must skip


def token_text(size: int, seed: int) -> bytes:
    """Exactly ``size`` bytes of newline-terminated lines of tokens drawn
    uniformly from a ``VOCAB``-word vocabulary."""
    rng = random.Random(seed)
    vocab = [f"tok{i:05d}" for i in range(VOCAB)]
    lines = []
    total = 0
    block = TOKENS_PER_LINE * 1024
    while total < size:
        words = rng.choices(vocab, k=block)
        for j in range(0, block, TOKENS_PER_LINE):
            line = " ".join(words[j : j + TOKENS_PER_LINE]) + "\n"
            lines.append(line)
            total += len(line)
    data = "".join(lines).encode()[: size - 1]
    return data + b"\n"


_IP_POOL = 211
_AGENTS = tuple(f"Mozilla/5.0 (agent-{i:02d})" for i in range(20))
_WORDS = tuple(f"keyword{i:03d}" for i in range(50))


def uservisits_rows(rows: int, seed: int) -> tuple[bytes, dict[bytes, float], int]:
    """Pipe-delimited visit rows with every ``MALFORMED_EVERY``-th row
    malformed (three kinds in turn: two fields, unparsable revenue, infinite
    revenue). Returns (data, per-IP file-order revenue sums, malformed)."""
    rng = random.Random(seed)
    pool = [f"10.{i // 256}.{i % 256}.{rng.randrange(256)}" for i in range(_IP_POOL)]
    totals: dict[bytes, float] = {}
    lines = []
    malformed = 0
    for i in range(rows):
        ip = pool[rng.randrange(_IP_POOL)]
        dest = f"dest-{rng.randrange(500):03d}.example.com/page-{rng.randrange(10000):04d}"
        revenue = f"{rng.randrange(0, 50000) / 100.0:.2f}"
        agent = _AGENTS[rng.randrange(len(_AGENTS))]
        word = _WORDS[rng.randrange(len(_WORDS))]
        duration = rng.randrange(0, 36000)
        if i % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            kind = (i // MALFORMED_EVERY) % 3
            malformed += 1
            if kind == 0:
                lines.append(f"{ip}|{dest}\n")
                continue
            revenue = "n/a" if kind == 1 else "inf"
        else:
            key = ip.encode()
            totals[key] = totals.get(key, 0.0) + float(revenue)
        lines.append(f"{ip}|{dest}|{revenue}|{agent}|{word}|{duration}\n")
    return "".join(lines).encode(), totals, malformed


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def render_parts(values: dict[bytes, bytes]) -> list[bytes]:
    """Part file bytes: each key in exactly one part, sorted within it,
    one ``key TAB value LF`` line per key."""
    parts: list[list[bytes]] = [[] for _ in range(NUM_REDUCERS)]
    for key in sorted(values):
        parts[fnv1a64(key) % NUM_REDUCERS].append(key + b"\t" + values[key] + b"\n")
    return [b"".join(p) for p in parts]


def make_input(w: Workload, seed: int, size: int | None = None) -> Input:
    size = w.size if size is None else size
    if w.job == "wordcount":
        data = token_text(size, seed)
        counts = Counter(data.split())
        expected = {k: str(v).encode() for k, v in counts.items()}
        return Input(data, render_parts(expected), 0)
    data, totals, malformed = uservisits_rows(size, seed)
    expected = {k: repr(v).encode() for k, v in totals.items()}
    return Input(data, render_parts(expected), malformed)


# ---------------------------------------------------------------------------
# correctness gate


def check_job(cluster, report, inp: Input, events: list[dict], w: Workload) -> list[str]:
    """Problems with one finished job; empty when its output is correct."""
    problems = []
    if report.phase != "done":
        problems.append(f"phase {report.phase!r}")
    if len(report.parts) != NUM_REDUCERS:
        problems.append(f"{len(report.parts)} parts, expected {NUM_REDUCERS}")
    for i, (path, want) in enumerate(zip(report.parts, inp.expected_parts)):
        got = cluster.get_file(path)
        if got != want:
            problems.append(f"part {i} differs ({len(got)} bytes, expected {len(want)})")
    if report.skipped_records != inp.malformed:
        problems.append(
            f"skipped_records {report.skipped_records}, injected {inp.malformed}")
    if w.fail_node_after is not None and not any(
            e["event"] == "node_dead" for e in events):
        problems.append("the scripted node death never fired")
    return problems
