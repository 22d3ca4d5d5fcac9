"""Independent reference implementations used as test oracles.

Everything here is a straight single-pass evaluation over raw bytes with no
knowledge of chunks, splits, partitions or runs, so agreement with the
engine is meaningful.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass


def split_lines(data: bytes) -> list[bytes]:
    """Newline-delimited records; a trailing newline terminates the last
    record instead of opening an empty one."""
    if not data:
        return []
    parts = data.split(b"\n")
    if data.endswith(b"\n"):
        parts.pop()
    return parts


def records_with_offsets(data: bytes) -> list[tuple[int, bytes]]:
    out = []
    pos = 0
    for line in split_lines(data):
        out.append((pos, line))
        pos += len(line) + 1
    return out


def wordcount(data: bytes) -> dict[bytes, int]:
    """Token frequencies; tokens are maximal non-whitespace runs, so line
    structure is irrelevant and this stays independent of record handling."""
    return dict(Counter(data.split()))


def uservisits_sums(data: bytes) -> dict[bytes, float]:
    """Per-source-IP revenue sums accumulated in file order, skipping
    malformed rows the same way the job declares it does."""
    sums: dict[bytes, float] = {}
    for line in split_lines(data):
        fields = line.split(b"|")
        if len(fields) < 3:
            continue
        try:
            revenue = float(fields[2])
        except ValueError:
            continue
        if not math.isfinite(revenue):
            continue
        key = fields[0]
        sums[key] = sums.get(key, 0.0) + revenue
    return sums


def sequential_mapreduce(data: bytes, mapper, reducer) -> dict[bytes, bytes]:
    """Reference map -> group -> reduce evaluation: apply the mapper to each
    record in file order, group values per key in emission order, reduce in
    key order."""
    from minimapred.errors import SkipRecord

    grouped: dict[bytes, list[bytes]] = {}
    for offset, line in records_with_offsets(data):
        try:
            pairs = mapper(offset, line)
        except SkipRecord:
            continue
        for k, v in pairs:
            grouped.setdefault(k, []).append(v)
    out: dict[bytes, bytes] = {}
    for k in sorted(grouped):
        for rk, rv in reducer(k, grouped[k]):
            out[rk] = rv
    return out


def parse_parts(cluster, part_paths: list[str]) -> dict[bytes, bytes]:
    """Parse TAB/LF part files back into a key -> value map."""
    out: dict[bytes, bytes] = {}
    for path in part_paths:
        blob = cluster.get_file(path)
        for line in split_lines(blob):
            k, v = line.split(b"\t", 1)
            assert k not in out, f"key {k!r} appears in more than one part"
            out[k] = v
    return out


def store_problems(cluster) -> list[tuple[str, int, str, int]]:
    """What breaks the store's one write rule, as sorted (problem, node,
    chunk file_id, chunk index) tuples: ``"missing"`` for a replica the
    catalog lists that is not stored, ``"unlisted"`` for a stored chunk that
    no catalog entry lists, and ``"stray"`` for any other file in a node
    directory, such as the temp file of a failed write, with the file's name
    in place of the chunk id and index -1. The stored chunks are read from
    the backend itself: the memory store's chunk keys, or the disk store's
    ``node<N>/<chunk file_id>.<k>`` files."""
    listed = {(node, ch.file_id, ch.index) for meta in cluster.list_files()
              for ch in meta.chunks for node in ch.replicas}
    store = cluster.store
    strays = []
    if store.kind == "memory":
        stored = set(store._chunks)
    else:
        stored = set()
        for node_dir in os.listdir(store.root):
            if not node_dir.startswith("node"):
                continue
            node = int(node_dir[4:])
            for name in os.listdir(os.path.join(store.root, node_dir)):
                if name in ("DEAD", "local"):
                    continue
                file_id, _, index = name.rpartition(".")
                if index.isdigit():
                    stored.add((node, file_id, int(index)))
                else:
                    strays.append(("stray", node, name, -1))
    return sorted([("missing", *r) for r in listed - stored]
                  + [("unlisted", *r) for r in stored - listed] + strays)


def local_leftovers(cluster) -> list[tuple[int, str]]:
    """The node-local objects still stored, as sorted (node, name) pairs:
    the memory store's local keys, or every file under the disk store's
    ``node<N>/local/``, temp files included, named by its path below
    ``local/`` with ``/`` separators."""
    store = cluster.store
    if store.kind == "memory":
        return sorted(store._local)
    found = []
    for node_dir in os.listdir(store.root):
        if not node_dir.startswith("node"):
            continue
        local = os.path.join(store.root, node_dir, "local")
        for dirpath, _, names in os.walk(local):
            for name in names:
                rel = os.path.relpath(os.path.join(dirpath, name), local)
                found.append((int(node_dir[4:]), rel.replace(os.sep, "/")))
    return sorted(found)


_FIELD_LIMITS = (16, 100, None, 64, 32, None)  # max chars per column


@dataclass(frozen=True)
class UserVisitRecord:
    """One uservisits row, checked against the schema's column limits."""

    source_ip: str
    dest_ip: str
    revenue: float
    user_agent: str
    search_word: str
    duration: int

    def __post_init__(self):
        for value, limit in zip(
            (self.source_ip, self.dest_ip, None, self.user_agent, self.search_word),
            _FIELD_LIMITS,
        ):
            if limit is not None and len(value) > limit:
                raise ValueError(f"field {value!r} exceeds {limit} chars")
        if not (math.isfinite(self.revenue) and self.revenue >= 0):
            raise ValueError(f"revenue {self.revenue!r} must be finite and >= 0")

    def to_line(self) -> bytes:
        return "|".join(
            (
                self.source_ip,
                self.dest_ip,
                f"{self.revenue:.2f}",
                self.user_agent,
                self.search_word,
                str(self.duration),
            )
        ).encode()

    @classmethod
    def from_line(cls, line: bytes) -> "UserVisitRecord":
        fields = line.decode().split("|")
        if len(fields) != 6:
            raise ValueError(f"expected 6 fields, got {len(fields)}")
        return cls(
            source_ip=fields[0],
            dest_ip=fields[1],
            revenue=float(fields[2]),
            user_agent=fields[3],
            search_word=fields[4],
            duration=int(fields[5]),
        )
