"""Worker-side task execution: map with partition/sort/combine, the
merge-sort shuffle, grouping, and reduce.

Intermediate data is stored as node-local "runs": key-sorted files of
(key, values) groups, where adjacent groups may repeat a key. A run is a
sequence of frames, each an 8-byte little-endian length followed by
``marshal.dumps(groups, 2)`` of a list of groups. Version 2 is pinned
because later versions write back-references to objects that occur more
than once, which would make a run's bytes depend on object identity and
not only on its values. Marshal's format is tied to the interpreter and
is not hardened against hostile input; the engine writes and reads its
runs itself, within one job, in the store's node-local directories.

A map task buffers values per key and writes one run of sorted groups per
partition at ``spill_pairs`` buffered values (a spill) and at the end (the
final run), applying the combiner, if any, once per key at each write. The
buffer is filled from the key groups of the mapper's split form (see
``registry``), with the spill check after each group. Its spills and final
run are its output: the only merge is the reducer's k-way merge over every
run of every map task, where ties on equal keys break by map task index,
then spill index, then emission order, which makes reducer input fully
deterministic.
"""

from __future__ import annotations

import heapq
import marshal
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .dfs import Cluster, InputSplit
from .errors import NotFound, ShuffleSourceLost
from .hashing import partition_for_key
from .jobtypes import SPILL_PAIRS

Group = tuple[bytes, list[bytes]]

# A frame is cut once its groups' key and value bytes, plus 8 per value for
# the list slot each value takes when decoded, reach this bound. On the
# 6 MiB uncombined wordcount of perfbench's wc-shuffle (Python 3.11, glibc),
# a 64 KiB bound left the process's peak RSS ~6 MiB higher than 32 KiB did.
FRAME_BYTES = 32 << 10


def write_run(sink, groups: Iterable[Group]) -> int:
    """Serialize (key, values) groups to a run file as frames; returns the
    pair count. A key or value that is not bytes-like raises TypeError."""
    frame: list[Group] = []
    size = count = 0
    for k, vs in groups:
        frame.append((k, vs))
        size += len(b"" + k) + len(b"".join(vs)) + 8 * len(vs)
        count += len(vs)
        if size >= FRAME_BYTES:
            _write_frame(sink, frame)
            frame, size = [], 0
    if frame:
        _write_frame(sink, frame)
    return count


def _write_frame(sink, frame: list[Group]) -> None:
    body = marshal.dumps(frame, 2)
    sink.write(len(body).to_bytes(8, "little"))
    sink.write(body)


def iter_run(f) -> Iterator[Group]:
    """Stream (key, values) groups back out of a run file, holding one
    decoded frame in memory."""
    while head := f.read(8):
        if len(head) < 8:
            raise ValueError("truncated run file")
        size = int.from_bytes(head, "little")
        body = f.read(size)
        if len(body) < size:
            raise ValueError("truncated run file")
        yield from marshal.loads(body)


def run_name(job_id: str, task_id: str, attempt: int, partition: int) -> str:
    return f"runs/{job_id}/{task_id}.{attempt}.{partition}"


# ---------------------------------------------------------------------------
# Map side


def run_map_task(
    cluster: Cluster,
    job_id: str,
    task_id: str,
    attempt: int,
    node: int,
    split: InputSplit,
    mapper: Callable,
    combiner: Callable | None,
    num_reducers: int,
    spill_pairs: int = SPILL_PAIRS,
) -> tuple[list[tuple[str, ...]], int]:
    """Run the mapper's split form over the split's records and leave
    key-sorted runs for each partition on the executing node's local store.

    ``mapper(blocks, combiner)`` is called once, on ``read_split``'s
    blocks, and the buffer takes each key group it yields, values per key
    in emission order. One writer sorts and partitions the buffer and
    writes it out as runs: at ``spill_pairs`` buffered values, checked
    after each group, as one spill run ``<run>.spill<i>`` per non-empty
    partition, and at the end as the final run ``run_name(...)`` of every
    partition, empty or not. The combiner, if any, is applied once per key
    at each write; a run is published only once written whole. Memory is
    the split form's own state plus the spill buffer, plus the bytes of the
    run being written.
    Returns (each partition's run names on ``node``, skipped records), the
    skip count being the split form's return value or 0; the names are in
    spill order, which is emission order, final run last.
    """
    store = cluster.store
    buffer: dict[bytes, list[bytes]] = {}  # key -> values in emission order
    runs: list[tuple[str, ...]] = [() for _ in range(num_reducers)]
    buffered = 0

    def write_runs(final: bool) -> None:
        """Sort and partition the buffer and write one run per partition,
        combined if a combiner is set: a spill run for each non-empty
        partition, or the final run of every partition; the buffer
        restarts."""
        nonlocal buffer
        d, buffer = buffer, {}
        keys: list[list[bytes]] = [[] for _ in range(num_reducers)]
        for k in sorted(d):
            keys[partition_for_key(k, num_reducers)].append(k)
        for p, ks in enumerate(keys):
            if not (ks or final):
                continue
            name = run_name(job_id, task_id, attempt, p)
            if not final:
                name = f"{name}.spill{len(runs[p])}"
            sink = store.open_local_write(node, name)
            write_run(sink, ((k, d[k]) for k in ks) if combiner is None else
                      ((ck, [cv]) for k in ks for ck, cv in combiner(k, d[k])))
            sink.close()
            runs[p] += (name,)

    groups = iter(mapper(cluster.read_split(split), combiner))
    while True:
        try:
            k, values = next(groups)
        except StopIteration as end:
            skipped = end.value or 0
            break
        vals = buffer.get(k)
        if vals is None:
            buffer[k] = values
        else:
            vals.extend(values)
        buffered += len(values)
        if buffered >= spill_pairs:
            write_runs(final=False)
            buffered = 0

    write_runs(final=True)
    return runs, skipped


# ---------------------------------------------------------------------------
# Reduce side


def shuffle_fetch(
    cluster: Cluster, sources: list[tuple[int, str, int, tuple[str, ...]]]
) -> Iterator[Group]:
    """Merge every sorted run of one partition into a single key-sorted
    stream of groups.

    ``sources`` is (map index, map task id, node, run names), taken in map
    index order, each source's runs in the order given (spill order, final
    run last). The merge is stable, so equal keys come out in (map task
    index, spill index, emission order). All runs are open at once: the
    fan-in is the sum over map tasks of (spills + 1), with no cap.
    A source on a dead node, or with any run missing, raises
    ShuffleSourceLost so the master re-executes that map task.
    """
    files = []
    try:
        for _, map_task_id, node, names in sorted(sources):
            if cluster.is_node_dead(node):
                raise ShuffleSourceLost(map_task_id)
            for name in names:
                try:
                    files.append(cluster.store.open_local_read(node, name))
                except NotFound:
                    raise ShuffleSourceLost(map_task_id) from None
    except Exception:
        for f in files:
            f.close()
        raise

    def merged():
        try:
            yield from heapq.merge(*(iter_run(f) for f in files), key=itemgetter(0))
        finally:
            for f in files:
                f.close()

    return merged()


def group_by_key(groups: Iterable[Group]) -> Iterator[Group]:
    """Join adjacent groups of a key-sorted stream into one (key, values)
    per key, values in stream order. Only one key is materialized at a
    time."""
    key = values = None
    for k, vs in groups:
        if values is not None:
            if k == key:
                values += vs
                continue
            if k < key:
                raise AssertionError("group_by_key fed an unsorted stream")
            yield key, values
        key, values = k, list(vs)
    if values is not None:
        yield key, values


def run_reduce_task(
    cluster: Cluster,
    partition_index: int,
    reducer: Callable,
    sources: list[tuple[int, str, int, tuple[str, ...]]],
    output_path: str,
) -> str:
    """Merge this partition's runs, reduce each key group in key order, and
    write the part file to the DFS; returns the part's path.

    The reducer's pairs stream from the merge into ``write_output``, so the
    task holds no list of its pairs or lines, only the part's bytes."""
    groups = group_by_key(shuffle_fetch(cluster, sources))
    pairs = (pair for key, values in groups for pair in reducer(key, values))
    return cluster.write_output(output_path, partition_index, pairs)
