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
import contextlib
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
        # the bytes of json.dumps(asdict(self), sort_keys=True), without its deep copy
        return json.dumps({**vars(self), "chunks": [vars(c) for c in self.chunks]}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FileMeta":
        """Parse a catalog entry; a field of the wrong JSON type, or chunks
        that do not cover the size in order with distinct replicas, raise
        InvalidConfig, so no command reads a string as a size."""
        d = json.loads(text)
        chunks = tuple(
            Chunk(c["file_id"], c["index"], c["offset"], c["length"], tuple(c["replicas"]))
            for c in d["chunks"]
        )
        meta = cls(d["path"], d["file_id"], d["size"], chunks)
        require_ints("catalog sizes, offsets and replicas", meta.size, *chain.from_iterable(
            (c.index, c.offset, c.length, *c.replicas) for c in chunks))
        if any(type(s) is not str for s in (meta.path, meta.file_id, *(c.file_id for c in chunks))):
            raise InvalidConfig("catalog path and file ids must be strings")
        offset = 0
        for i, c in enumerate(chunks):
            if c.index != i or c.offset != offset or c.length < 1:
                raise InvalidConfig(f"catalog chunk {i} has index {c.index}, "
                                    f"offset {c.offset}, length {c.length}")
            if not c.replicas or len(set(c.replicas)) < len(c.replicas):
                raise InvalidConfig(f"catalog chunk {i} has replicas {list(c.replicas)}")
            offset += c.length
        if meta.size != offset:  # a negative size too: offset is never below 0
            raise InvalidConfig(f"catalog size {meta.size} is not its chunks' {offset}")
        return meta


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


def _cut(data, size: int) -> Iterator[memoryview]:
    """``data`` in read-only byte views of ``size`` bytes, the last one
    shorter and none empty. Bytes-like ``data`` is cut without a copy. Any
    other ``data`` is an iterable of bytes-like pieces: a chunk that lies
    inside one piece is a view of it, and one that spans pieces is gathered
    in a single ``size``-byte buffer, which the next chunk reuses."""
    try:
        whole = memoryview(data).cast("B").toreadonly()
    except TypeError:
        yield from _cut_pieces(data, size)
        return
    for i in range(0, len(whole), size):
        yield whole[i : i + size]


def _cut_pieces(pieces: Iterable, size: int) -> Iterator[memoryview]:
    buf = None  # made when a piece ends inside a chunk, and never resized
    held = 0
    for piece in pieces:
        view = memoryview(piece).cast("B").toreadonly()
        pos = 0
        if held:
            pos = min(size - held, len(view))
            buf[held : held + pos] = view[:pos]
            held += pos
            if held < size:
                continue
            yield memoryview(buf).toreadonly()
            held = 0
        while len(view) - pos >= size:
            yield view[pos : pos + size]
            pos += size
        held = len(view) - pos
        if held:
            if buf is None:
                buf = bytearray(size)
            buf[:held] = view[pos:]
    if held:
        yield memoryview(buf)[:held].toreadonly()


def atomic_write(path: str, pieces: Iterable) -> None:
    """Write the bytes-like ``pieces`` to a temp file beside ``path`` and
    publish it there by rename. A failure removes the temp file before the
    error propagates, so ``path`` is left as it was."""
    tmp = f"{path}.tmp{uuid.uuid4().hex}"  # unique per writer, not per process
    try:
        with open(tmp, "wb") as f:
            f.writelines(pieces)  # drops each piece before it asks for the next
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# Backing stores


class _LocalSink(NamedTuple):
    """A node-local object built in memory; only its ``close`` publishes it."""

    write: Callable[[bytes], object]
    close: Callable[[], None]


class _Store:
    """The store's logic, written once over a backend's byte primitives.

    Objects have slash-separated keys: ``node<N>/<chunk file_id>.<k>`` for
    chunk replicas, ``meta/<file_id>.json`` for the catalog,
    ``node<N>/local/<name>`` for node-local intermediate data (map output
    runs, not replicated) and ``node<N>/DEAD`` for the marker of the node's
    death. The store still serves a dead node's bytes; ``Cluster`` and
    ``shuffle_fetch`` check the marker before reading.

    A backend implements ``_put(key, data)``, which publishes the
    bytes-like ``data`` whole; ``_get(key, lo=0, hi=None)``, bytes
    [lo, hi) of an object, and ``_open(key)``, a binary reader of it, both
    raising FileNotFoundError for a missing key; ``_exists(key)``;
    ``_delete(key)``, a no-op for a missing key; ``_names(prefix)``, the
    names of the objects under the directory ``prefix``; and
    ``_delete_tree(prefix)``.
    """

    num_nodes: int  # every catalog replica is below it

    def __init_subclass__(cls, **kwargs):
        # Each backend holds the shared methods in its own namespace, so
        # perfbench's tracer patches and restores them class by class.
        # ROADMAP.md item 3 (the tracer's patches retired) deletes this hook.
        super().__init_subclass__(**kwargs)
        for name, value in vars(_Store).items():
            if not name.startswith("_") and name not in vars(cls):
                setattr(cls, name, value)

    # liveness
    def mark_dead(self, node: int) -> None:
        self._put(f"node{node}/DEAD", b"")

    def is_dead(self, node: int) -> bool:
        return self._exists(f"node{node}/DEAD")

    # chunk replicas
    def write_chunk(self, node: int, file_id: str, index: int, data) -> None:
        """Store the bytes-like ``data`` as the chunk's replica on ``node``."""
        self._put(f"node{node}/{file_id}.{index}", data)

    def read_chunk(self, node: int, file_id: str, index: int,
                   lo: int = 0, hi: int | None = None) -> bytes:
        """Bytes [lo, hi) of the chunk, the whole chunk by default."""
        return self._get(f"node{node}/{file_id}.{index}", lo, hi)

    def delete_chunk(self, node: int, file_id: str, index: int) -> None:
        self._delete(f"node{node}/{file_id}.{index}")

    # catalog
    def put_meta(self, meta: FileMeta) -> None:
        self._put(f"meta/{meta.file_id}.json", meta.to_json().encode())

    def _read_meta(self, key: str) -> FileMeta:
        """The catalog entry at ``key``; a garbled one raises InvalidConfig."""
        text = self._get(key)
        try:
            meta = FileMeta.from_json(text)
            nodes = {n for c in meta.chunks for n in c.replicas}
            if not nodes <= set(range(self.num_nodes)):
                raise InvalidConfig(f"catalog replicas must be in [0, {self.num_nodes})")
            if key != f"meta/{meta.file_id}.json" or meta.file_id != file_id_for(meta.path):
                raise InvalidConfig(f"catalog file id {meta.file_id!r} names neither "
                                    f"the entry's key nor its path")
            return meta
        except (ValueError, KeyError, TypeError, InvalidConfig) as e:
            raise InvalidConfig(f"unreadable catalog entry {key!r}: {e!r}") from None

    def get_meta_by_id(self, file_id: str) -> FileMeta | None:
        try:
            return self._read_meta(f"meta/{file_id}.json")
        except FileNotFoundError:
            return None

    def get_meta(self, path: str) -> FileMeta | None:
        return self.get_meta_by_id(file_id_for(path))

    def list_metas(self) -> list[FileMeta]:
        return sorted((self._read_meta(f"meta/{name}") for name in self._names("meta")
                       if name.endswith(".json")), key=lambda m: m.path)

    # node-local data
    def open_local_write(self, node: int, name: str) -> _LocalSink:
        key = f"node{node}/local/{name}"
        buf = io.BytesIO()
        return _LocalSink(buf.write, lambda: self._put(key, buf.getvalue()))

    def open_local_read(self, node: int, name: str):
        try:
            return self._open(f"node{node}/local/{name}")
        except FileNotFoundError:
            raise NotFound(f"node {node} has no local object {name!r}") from None

    def delete_local(self, node: int, name: str) -> None:
        self._delete(f"node{node}/local/{name}")

    def delete_local_tree(self, node: int, prefix: str) -> None:
        """Delete the node's local objects under the directory ``prefix``."""
        self._delete_tree(f"node{node}/local/{prefix}")


class MemoryStore(_Store):
    """In-process store over one dict; usable only with serial/thread
    execution. A view of an immutable ``bytes`` object is stored as it is,
    so ``put_file`` of a ``bytes`` file keeps no second copy of it; any
    other bytes-like object is copied once, so a caller may change its
    ``bytearray`` afterwards. Reads return ``bytes``: a stored view's range
    is copied, and a full-range ``read_chunk`` of a stored ``bytes`` object
    returns that object."""

    kind = "memory"

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self._objects: dict[str, bytes | memoryview] = {}
        self._lock = threading.Lock()

    def _put(self, key: str, data) -> None:
        if not (isinstance(data, memoryview) and type(data.obj) is bytes):
            data = bytes(data)  # no copy of a bytes object
        with self._lock:
            self._objects[key] = data

    def _get(self, key: str, lo: int = 0, hi: int | None = None) -> bytes:
        try:
            data = self._objects[key][lo:hi]
        except KeyError:
            raise FileNotFoundError(key) from None
        return data if type(data) is bytes else data.tobytes()

    def _open(self, key: str) -> io.BytesIO:
        return io.BytesIO(self._get(key))

    def _exists(self, key: str) -> bool:
        return key in self._objects

    def _delete(self, key: str) -> None:
        with self._lock:
            self._objects.pop(key, None)

    def _names(self, prefix: str) -> list[str]:
        with self._lock:
            return [k[len(prefix) + 1:] for k in self._objects if k.startswith(prefix + "/")]

    def _delete_tree(self, prefix: str) -> None:
        for name in self._names(prefix):
            self._delete(f"{prefix}/{name}")


class DiskStore(_Store):
    """On-disk store: the object at key ``k`` is the file ``<root>/k``,
    published whole by rename, so every handle sees the same objects,
    including the handles of concurrently running worker processes. A
    killed process never exposes a torn file, but nothing is fsynced, so a
    power cut or an OS crash may leave a renamed file empty or short."""

    kind = "disk"

    def __init__(self, root: str, num_nodes: int):
        self.root = os.path.abspath(root)
        self.num_nodes = num_nodes
        os.makedirs(os.path.join(self.root, "meta"), exist_ok=True)

    def _put(self, key: str, data) -> None:
        """Publish the bytes-like ``data`` at ``key`` by ``atomic_write``;
        makes its directory."""
        path = os.path.join(self.root, key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write(path, (data,))

    def _get(self, key: str, lo: int = 0, hi: int | None = None) -> bytes:
        with open(os.path.join(self.root, key), "rb") as f:
            if lo:
                f.seek(lo)
            return f.read() if hi is None else f.read(max(0, hi - lo))

    def _open(self, key: str):
        return open(os.path.join(self.root, key), "rb")

    def _exists(self, key: str) -> bool:
        return os.path.exists(os.path.join(self.root, key))

    def _delete(self, key: str) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(self.root, key))

    def _names(self, prefix: str) -> list[str]:
        return os.listdir(os.path.join(self.root, prefix))

    def _delete_tree(self, prefix: str) -> None:
        shutil.rmtree(os.path.join(self.root, prefix), ignore_errors=True)


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
        self.store = store if store is not None else MemoryStore(config.num_nodes)

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
            return cls(stored, DiskStore(root, stored.num_nodes))
        if config is None:
            raise NotFound(f"store {root!r} not found: it has no {_CONFIG_FILE}")
        store = DiskStore(root, config.num_nodes)
        store._put(_CONFIG_FILE, json.dumps(config.to_dict()).encode())
        return cls(config, store)

    # -- liveness ----------------------------------------------------------

    def mark_node_dead(self, node: int) -> None:
        require_ints("node ids", node)
        if not 0 <= node < self.config.num_nodes:
            raise InvalidConfig(f"node {node} out of range")
        self.store.mark_dead(node)

    def is_node_dead(self, node: int) -> bool:
        return self.store.is_dead(node)

    def live_nodes(self) -> list[int]:
        return [n for n in range(self.config.num_nodes) if not self.store.is_dead(n)]

    # -- file operations ---------------------------------------------------

    def put_file(self, path: str, data, overwrite: bool = False) -> FileMeta:
        """Store ``data`` under ``path`` as replicated equal-sized chunks.

        ``data`` is bytes-like, cut into chunks without a copy, or an
        iterable of bytes-like pieces, of which at most one chunk is held;
        either form of the same bytes stores the same chunks and entry. A
        piece is not used after the next one is asked for, so the iterable
        may refill one buffer. An
        overwrite writes fresh chunk ids and deletes the old entry's
        replicas after its ``put_meta``. A put that fails before its
        ``put_meta`` deletes the replicas it wrote (a killed process leaves
        them as orphans), so an old file stays whole."""
        old = self.store.get_meta(path)
        if old is not None and not overwrite:
            raise AlreadyExists(f"path {path!r} is already stored")

        cs = self.config.chunk_size
        live = self.live_nodes()
        fid = file_id_for(path)
        cid = fid if old is None else f"{fid}-{uuid.uuid4().hex[:8]}"
        h = placement_hash(self.config.seed, path)
        chunks = []  # each listed before its replicas are written
        try:
            for i, piece in enumerate(_cut(data, cs)):
                if not live:
                    raise ChunkUnavailable(i, path)
                replication = min(self.config.replication, len(live))
                start = (h + i) % len(live)
                replicas = tuple(live[(start + j) % len(live)] for j in range(replication))
                chunks.append(Chunk(cid, i, i * cs, len(piece), replicas))
                for node in replicas:
                    self.store.write_chunk(node, cid, i, piece)
            meta = FileMeta(path, fid, sum(c.length for c in chunks), tuple(chunks))
            self.store.put_meta(meta)
        except BaseException:
            for c in chunks:
                for node in c.replicas:
                    with contextlib.suppress(OSError):
                        self.store.delete_chunk(node, cid, c.index)
            raise
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

    def iter_file(self, path: str) -> Iterator[bytes]:
        """The file's chunks in order, each read whole from a live replica
        when it is reached; the file's entry is read at the call."""
        meta = self.meta(path)
        return (self.read_range(meta, c.offset, c.offset + c.length) for c in meta.chunks)

    def get_file(self, path: str) -> bytes:
        """The whole file, joined from ``iter_file``."""
        return b"".join(self.iter_file(path))

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
