"""Simulated distributed file system.

Files are split into equal-sized chunks, each replicated on a configurable
number of distinct nodes. Placement is a seeded round-robin so a given
(config, path) always produces the same layout. Reads fall back to any live
replica; a chunk whose replicas are all dead is unavailable. The same node
directories also hold worker-local intermediate data (map output runs),
which is lost when a node dies, unlike replicated chunk data.
"""

from __future__ import annotations

import bisect
import io
import json
import hashlib
import os
import shutil
import threading
import uuid
from dataclasses import asdict, dataclass
from functools import partial
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import AlreadyExists, ChunkUnavailable, InvalidConfig, NotFound, require_ints
from .hashing import placement_hash


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster and its storage policy."""

    num_nodes: int = 4
    chunk_size: int = 16 * 1024 * 1024
    replication: int = 2
    seed: int = 42

    def __post_init__(self):
        require_ints("cluster config fields", *vars(self).values())
        if self.num_nodes < 1:
            raise InvalidConfig(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.chunk_size < 1:
            raise InvalidConfig(f"chunk_size must be >= 1, got {self.chunk_size}")
        if not 1 <= self.replication <= self.num_nodes:
            raise InvalidConfig(
                f"replication must be in [1, num_nodes={self.num_nodes}], "
                f"got {self.replication}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Chunk:
    """One chunk of a file; ``file_id`` names its replica files, and after
    an overwrite it differs from the entry's ``file_id``."""

    file_id: str
    index: int
    offset: int
    length: int
    replicas: tuple[int, ...]


@dataclass(frozen=True)
class FileMeta:
    path: str
    file_id: str
    size: int
    chunks: tuple[Chunk, ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FileMeta":
        d = json.loads(text)
        chunks = tuple(
            Chunk(c["file_id"], c["index"], c["offset"], c["length"], tuple(c["replicas"]))
            for c in d["chunks"]
        )
        return cls(d["path"], d["file_id"], d["size"], chunks)


@dataclass(frozen=True)
class InputSplit:
    """A slice of a stored file destined for exactly one map task."""

    file_id: str
    split_index: int
    start: int
    end: int
    preferred_nodes: tuple[int, ...]


class Record(NamedTuple):
    offset: int
    line: bytes


# A split is cut into blocks of up to ``_BLOCK`` bytes of whole records (a
# longer record is a block of its own); the record crossing the split's end
# is finished with reads of ``_TAIL`` bytes, doubling up to ``_BLOCK``, so a
# short record costs one small read and a long one few reads.
_BLOCK = 64 * 1024
_TAIL = 256

# C-level helpers: building offsets and records runs no Python frame per record
_new_record = partial(tuple.__new__, Record)
_plus_newline = (1).__add__


def _block_records(block: tuple[int, bytes]) -> Iterator[Record]:
    offset, data = block
    lines = data.split(b"\n")
    offsets = accumulate(map(_plus_newline, map(len, lines)), initial=offset)
    return map(_new_record, zip(offsets, lines))


def records(blocks: Iterable[tuple[int, bytes]]) -> Iterator[Record]:
    """The ``Record``s of the blocks ``Cluster.read_split`` yields: each
    block's lines, with their file offsets, in order."""
    return chain.from_iterable(map(_block_records, blocks))


def file_id_for(path: str) -> str:
    """Filesystem-safe identifier for a DFS path."""
    return hashlib.sha256(path.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Backing stores


class _LocalSink(NamedTuple):
    """A node-local object built in memory; only its ``close`` publishes it."""

    write: Callable[[bytes], object]
    close: Callable[[], None]


class MemoryStore:
    """In-process store; usable only with serial/thread execution."""

    kind = "memory"

    def __init__(self):
        self._chunks: dict[tuple[int, str, int], bytes] = {}
        self._local: dict[tuple[int, str], bytes] = {}
        self._metas: dict[str, FileMeta] = {}  # keyed by file_id
        self._dead: set[int] = set()
        self._lock = threading.Lock()

    # liveness
    def mark_dead(self, node: int) -> None:
        with self._lock:
            self._dead.add(node)

    def is_dead(self, node: int) -> bool:
        return node in self._dead

    # chunk data
    def write_chunk(self, node: int, file_id: str, index: int, data: bytes) -> None:
        with self._lock:
            self._chunks[(node, file_id, index)] = bytes(data)

    def read_chunk(self, node: int, file_id: str, index: int,
                   lo: int = 0, hi: int | None = None) -> bytes:
        """Bytes [lo, hi) of the chunk, the whole chunk by default; a range
        covering the whole chunk returns the stored object, not a copy."""
        return self._chunks[(node, file_id, index)][lo:hi]

    def delete_chunk(self, node: int, file_id: str, index: int) -> None:
        with self._lock:
            self._chunks.pop((node, file_id, index), None)

    # catalog
    def put_meta(self, meta: FileMeta) -> None:
        with self._lock:
            self._metas[meta.file_id] = meta

    def get_meta_by_id(self, file_id: str) -> FileMeta | None:
        return self._metas.get(file_id)

    def get_meta(self, path: str) -> FileMeta | None:
        return self._metas.get(file_id_for(path))

    def list_metas(self) -> list[FileMeta]:
        return sorted(self._metas.values(), key=lambda m: m.path)

    # node-local data (map output runs); not replicated
    def open_local_write(self, node: int, name: str) -> _LocalSink:
        buf = io.BytesIO()

        def publish():
            with self._lock:
                self._local[(node, name)] = buf.getvalue()  # buf's bytes, no copy

        return _LocalSink(buf.write, publish)

    def open_local_read(self, node: int, name: str):
        try:
            return io.BytesIO(self._local[(node, name)])
        except KeyError:
            raise NotFound(f"node {node} has no local object {name!r}") from None

    def delete_local(self, node: int, name: str) -> None:
        with self._lock:
            self._local.pop((node, name), None)

    def delete_local_tree(self, node: int, prefix: str) -> None:
        """Delete the node's local objects under the directory ``prefix``."""
        with self._lock:
            for key in [k for k in self._local
                        if k[0] == node and k[1].startswith(prefix + "/")]:
                del self._local[key]


class DiskStore:
    """On-disk store; layout is ``<root>/node<N>/<chunk file_id>.<k>``
    for chunk replicas, ``<root>/meta/<file_id>.json`` for the catalog, and
    ``<root>/node<N>/local/...`` for node-local intermediate data. Each file
    is published whole by ``_atomic_write``, a run when its sink closes. A
    ``<root>/node<N>/DEAD`` marker records the node's death for every
    handle, including those of concurrently running worker processes; the
    store itself still serves the node's bytes, and ``Cluster`` and
    ``shuffle_fetch`` check the marker before reading."""

    kind = "disk"

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(os.path.join(self.root, "meta"), exist_ok=True)

    def _node_dir(self, node: int) -> str:
        return os.path.join(self.root, f"node{node}")

    def _atomic_write(self, path: str, data: bytes) -> None:
        """Publish ``data`` at ``path`` whole, by rename; makes its directory."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp{uuid.uuid4().hex}"  # unique per writer, not per process
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)

    # liveness
    def mark_dead(self, node: int) -> None:
        self._atomic_write(os.path.join(self._node_dir(node), "DEAD"), b"")

    def is_dead(self, node: int) -> bool:
        return os.path.exists(os.path.join(self._node_dir(node), "DEAD"))

    # chunk data
    def _chunk_path(self, node: int, file_id: str, index: int) -> str:
        return os.path.join(self._node_dir(node), f"{file_id}.{index}")

    def write_chunk(self, node: int, file_id: str, index: int, data: bytes) -> None:
        self._atomic_write(self._chunk_path(node, file_id, index), data)

    def read_chunk(self, node: int, file_id: str, index: int,
                   lo: int = 0, hi: int | None = None) -> bytes:
        """Bytes [lo, hi) of the chunk, the whole chunk by default."""
        with open(self._chunk_path(node, file_id, index), "rb") as f:
            if lo:
                f.seek(lo)
            return f.read() if hi is None else f.read(max(0, hi - lo))

    def delete_chunk(self, node: int, file_id: str, index: int) -> None:
        try:
            os.remove(self._chunk_path(node, file_id, index))
        except FileNotFoundError:
            pass

    # catalog
    def _meta_path(self, file_id: str) -> str:
        return os.path.join(self.root, "meta", f"{file_id}.json")

    def put_meta(self, meta: FileMeta) -> None:
        self._atomic_write(self._meta_path(meta.file_id), meta.to_json().encode())

    def _read_meta(self, path: str) -> FileMeta:
        """The catalog entry at ``path``; a garbled one raises InvalidConfig."""
        with open(path, "rb") as f:
            text = f.read()
        try:
            return FileMeta.from_json(text)
        except (ValueError, KeyError, TypeError) as e:
            raise InvalidConfig(f"unreadable catalog entry {path!r}: {e!r}") from None

    def get_meta_by_id(self, file_id: str) -> FileMeta | None:
        try:
            return self._read_meta(self._meta_path(file_id))
        except FileNotFoundError:
            return None

    def get_meta(self, path: str) -> FileMeta | None:
        return self.get_meta_by_id(file_id_for(path))

    def list_metas(self) -> list[FileMeta]:
        metas = []
        for name in os.listdir(os.path.join(self.root, "meta")):
            if name.endswith(".json"):
                metas.append(self._read_meta(os.path.join(self.root, "meta", name)))
        return sorted(metas, key=lambda m: m.path)

    # node-local data
    def _local_path(self, node: int, name: str) -> str:
        return os.path.join(self._node_dir(node), "local", *name.split("/"))

    def open_local_write(self, node: int, name: str) -> _LocalSink:
        path = self._local_path(node, name)
        buf = io.BytesIO()
        return _LocalSink(buf.write, lambda: self._atomic_write(path, buf.getvalue()))

    def open_local_read(self, node: int, name: str):
        try:
            return open(self._local_path(node, name), "rb")
        except FileNotFoundError:
            raise NotFound(f"node {node} has no local object {name!r}") from None

    def delete_local(self, node: int, name: str) -> None:
        try:
            os.remove(self._local_path(node, name))
        except FileNotFoundError:
            pass

    def delete_local_tree(self, node: int, prefix: str) -> None:
        shutil.rmtree(self._local_path(node, prefix), ignore_errors=True)


# ---------------------------------------------------------------------------
# Cluster: config + store + liveness


_CONFIG_FILE = "cluster.json"


class Cluster:
    """A simulated cluster: storage nodes plus the file catalog.

    Task payloads carry the cluster itself. Thread workers share the
    object; a disk-backed cluster pickles as its config and store root, so
    a worker process reopens the same files."""

    def __init__(self, config: ClusterConfig, store=None):
        self.config = config
        self.store = store if store is not None else MemoryStore()

    # -- construction ------------------------------------------------------

    @classmethod
    def open_disk(cls, root: str, config: ClusterConfig | None = None) -> "Cluster":
        """Open the disk-backed cluster rooted at ``root``; given ``config``,
        create it there if no store exists yet.

        A store is a root with a ``cluster.json``, the config it was created
        with, written by atomic rename. Without ``config``, a root that has
        none raises ``NotFound`` and nothing is created. Reopening with a
        conflicting config, or over an unreadable one, is an error, since
        placement and chunking of stored files depend on it.
        """
        cfg_path = os.path.join(root, _CONFIG_FILE)
        if os.path.exists(cfg_path):
            try:
                with open(cfg_path, "rb") as f:
                    stored = ClusterConfig(**json.load(f))
            except (ValueError, TypeError, InvalidConfig) as e:
                raise InvalidConfig(f"unreadable cluster config {cfg_path!r}: {e}") from None
            if config is not None and config != stored:
                raise InvalidConfig(
                    f"store at {root!r} was created with {stored.to_dict()}, "
                    f"which conflicts with {config.to_dict()}"
                )
            return cls(stored, DiskStore(root))
        if config is None:
            raise NotFound(f"store {root!r} not found: it has no {_CONFIG_FILE}")
        store = DiskStore(root)
        store._atomic_write(cfg_path, json.dumps(config.to_dict()).encode())
        return cls(config, store)

    # -- liveness ----------------------------------------------------------

    def mark_node_dead(self, node: int) -> None:
        if not 0 <= node < self.config.num_nodes:
            raise InvalidConfig(f"node {node} out of range")
        self.store.mark_dead(node)

    def is_node_dead(self, node: int) -> bool:
        return self.store.is_dead(node)

    def live_nodes(self) -> list[int]:
        return [n for n in range(self.config.num_nodes) if not self.store.is_dead(n)]

    # -- file operations ---------------------------------------------------

    def put_file(self, path: str, data: bytes, overwrite: bool = False) -> FileMeta:
        """Store ``data`` under ``path`` as replicated equal-sized chunks; an
        overwrite writes fresh chunk ids and deletes the old entry's replicas
        after its ``put_meta``, so a failure leaves the old file whole."""
        old = self.store.get_meta(path)
        if old is not None and not overwrite:
            raise AlreadyExists(f"path {path!r} is already stored")

        cs = self.config.chunk_size
        live = self.live_nodes()
        fid = file_id_for(path)
        cid = fid if old is None else f"{fid}-{uuid.uuid4().hex[:8]}"
        h = placement_hash(self.config.seed, path)
        n_chunks = (len(data) + cs - 1) // cs
        chunks = []
        for i in range(n_chunks):
            if not live:
                raise ChunkUnavailable(i, path)
            replication = min(self.config.replication, len(live))
            start = (h + i) % len(live)
            replicas = tuple(live[(start + j) % len(live)] for j in range(replication))
            piece = data[i * cs : (i + 1) * cs]
            for node in replicas:
                self.store.write_chunk(node, cid, i, piece)
            chunks.append(Chunk(cid, i, i * cs, len(piece), replicas))
        meta = FileMeta(path, fid, len(data), tuple(chunks))
        self.store.put_meta(meta)
        for c in old.chunks if old is not None else ():
            for node in c.replicas:
                self.store.delete_chunk(node, c.file_id, c.index)
        return meta

    def meta(self, path: str) -> FileMeta:
        m = self.store.get_meta(path)
        if m is None:
            raise NotFound(f"path {path!r} not found")
        return m

    def meta_by_id(self, file_id: str) -> FileMeta:
        m = self.store.get_meta_by_id(file_id)
        if m is None:
            raise NotFound(f"file id {file_id!r} not found")
        return m

    def list_files(self, prefix: str = "") -> list[FileMeta]:
        return [m for m in self.store.list_metas() if m.path.startswith(prefix)]

    def get_file(self, path: str) -> bytes:
        """Reassemble the file from any live replica of each chunk."""
        meta = self.meta(path)
        return self.read_range(meta, 0, meta.size)

    def read_range(self, meta: FileMeta, start: int, end: int) -> bytes:
        """Bytes of ``meta``'s file in [start, end), clamped to file size,
        each chunk read from its first live replica and covering only the
        requested bytes."""
        start = max(0, start)
        end = min(meta.size, end)
        if start >= end:
            return b""
        offsets = [c.offset for c in meta.chunks]
        ci = bisect.bisect_right(offsets, start) - 1
        parts = []
        pos = start
        while pos < end:
            c = meta.chunks[ci]
            hi = min(end - c.offset, c.length)
            node = next((n for n in c.replicas if not self.store.is_dead(n)), None)
            if node is None:
                raise ChunkUnavailable(c.index, meta.path)
            parts.append(self.store.read_chunk(node, c.file_id, c.index, pos - c.offset, hi))
            pos = c.offset + hi
            ci += 1
        return b"".join(parts)

    # -- splits and records ------------------------------------------------

    def make_splits(self, meta: FileMeta) -> list[InputSplit]:
        """One split per chunk; preferred nodes are the chunk's replicas."""
        return [
            InputSplit(meta.file_id, c.index, c.offset, c.offset + c.length, c.replicas)
            for c in meta.chunks
        ]

    def read_split(self, split: InputSplit) -> Iterator[tuple[int, bytes]]:
        """The records whose first byte lies in [start, end), as blocks.

        A block is an ``(offset, bytes)`` pair: one or more whole records
        joined by ``b"\\n"``, with no final newline, and the file offset of
        its first record; ``records`` expands blocks into ``Record``s.

        A record spanning the split's end is read to completion here and
        skipped by the next split, so every record is owned by exactly one
        split. The first byte of ``start`` belongs to a record iff the
        previous byte is a newline (or start == 0); otherwise the tail of
        the previous split's record is skipped. The split's bytes are read
        once, plus one byte before it and the end of the record that
        crosses its end.
        """
        meta = self.meta_by_id(split.file_id)
        start, end = split.start, min(split.end, meta.size)
        if start >= end:
            return
        data = self.read_range(meta, start, end)
        pos = 0  # start of the first owned record, relative to ``start``
        if start > 0 and self.read_range(meta, start - 1, start) != b"\n":
            pos = data.find(b"\n") + 1
            if pos == 0:
                return  # the whole split is inside an earlier split's record
        last = data.rfind(b"\n") + 1  # start of the record crossing ``end``
        while pos < last:
            nl = data.rfind(b"\n", pos, pos + _BLOCK)
            if nl < 0:  # a record longer than a block
                nl = data.find(b"\n", pos + _BLOCK)
            yield start + pos, data[pos:nl]
            pos = nl + 1
        if last < len(data):
            yield start + last, data[last:] + self._tail(meta, end)

    def _tail(self, meta: FileMeta, pos: int) -> bytes:
        """Bytes from ``pos`` up to the first newline or EOF."""
        parts = []
        step = _TAIL
        while pos < meta.size:
            piece = self.read_range(meta, pos, pos + step)
            nl = piece.find(b"\n")
            if nl >= 0:
                parts.append(piece[:nl])
                break
            parts.append(piece)
            pos += len(piece)
            step = min(2 * step, _BLOCK)
        return b"".join(parts)

    # -- reducer output ----------------------------------------------------

    def write_output(self, output_dir: str, partition_index: int,
                     pairs: Iterable[tuple[bytes, bytes]]) -> str:
        """Write one reducer's part file from ``pairs``, any iterable of
        (key, value), consumed once.

        The part is built whole, and ``put_file`` publishes it whole, so a
        failure leaves any part already at the path as it was."""
        path = part_file_path(output_dir, partition_index)
        part = io.BytesIO()  # not b"".join, which lists its argument first
        part.writelines(k + b"\t" + v + b"\n" for k, v in pairs)
        self.put_file(path, part.getvalue(), overwrite=True)
        return path


def part_file_path(output_dir: str, partition_index: int) -> str:
    return f"{output_dir.rstrip('/')}/part-r-{partition_index:05d}"
