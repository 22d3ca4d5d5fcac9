"""Storage layer: chunking, placement, replicas, splits, record reading."""

import functools
import gc
import itertools
import json
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from minimapred import (
    AlreadyExists,
    ChunkUnavailable,
    Cluster,
    ClusterConfig,
    InvalidConfig,
    NotFound,
)
from minimapred import dfs
from minimapred.dfs import DiskStore, FileMeta, MemoryStore, file_id_for, part_file_path

import oracles


def cluster(nodes=3, chunk=40, repl=2, seed=7, kind="memory", root=None):
    """A cluster on a memory store, or on a disk store in a new directory
    under ``root``."""
    config = ClusterConfig(num_nodes=nodes, chunk_size=chunk, replication=repl, seed=seed)
    if kind == "memory":
        return Cluster(config)
    return Cluster.open_disk(tempfile.mkdtemp(dir=root), config)


def on_both_stores(test):
    """Run ``test`` as written, once per store kind: each ``cluster()`` it
    calls is built on that kind of store. A failure names the kind."""
    make = cluster

    @functools.wraps(test)
    def both(*args, **kwargs):
        for kind in ("memory", "disk"):
            with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
                mp.setitem(globals(), "cluster", functools.partial(make, kind=kind, root=root))
                try:
                    test(*args, **kwargs)
                except BaseException as e:
                    e.add_note(f"on the {kind} store")
                    raise
    return both


# ---------------------------------------------------------------------------
# put_file / get_file


@on_both_stores
def test_100_byte_file_makes_three_chunks():
    c = cluster(nodes=3, chunk=40, repl=2)
    meta = c.put_file("t", b"x" * 100)
    assert [ch.length for ch in meta.chunks] == [40, 40, 20]
    assert [ch.offset for ch in meta.chunks] == [0, 40, 80]
    for ch in meta.chunks:
        assert len(set(ch.replicas)) == 2


@on_both_stores
def test_empty_file_has_zero_chunks():
    c = cluster()
    meta = c.put_file("empty", b"")
    assert meta.size == 0 and meta.chunks == ()
    assert c.get_file("empty") == b""
    assert c.make_splits(meta) == []


@on_both_stores
def test_placement_is_deterministic_for_same_seed():
    data = os.urandom(500)
    first = cluster(seed=99).put_file("f", data)
    second = cluster(seed=99).put_file("f", data)
    assert first.to_json() == second.to_json()


def test_catalog_json_bytes_are_pinned(tmp_path):
    # the on-disk catalog and cluster.json must not change bytes
    meta = cluster(nodes=3, chunk=4, repl=2, seed=7).put_file("d/f", b"ab\ncd\ne")
    text = (
        '{"chunks": [{"file_id": "dd3128568d26f545", "index": 0, "length": 4, '
        '"offset": 0, "replicas": [0, 1]}, {"file_id": "dd3128568d26f545", '
        '"index": 1, "length": 3, "offset": 4, "replicas": [1, 2]}], '
        '"file_id": "dd3128568d26f545", "path": "d/f", "size": 7}'
    )
    assert meta.to_json() == text
    assert FileMeta.from_json(text) == meta
    root = tmp_path / "s"
    cfg = ClusterConfig(num_nodes=3, chunk_size=4, replication=2, seed=7)
    Cluster.open_disk(str(root), cfg)
    text = (root / "cluster.json").read_text()
    assert text == '{"num_nodes": 3, "chunk_size": 4, "replication": 2, "seed": 7}'
    assert ClusterConfig(**json.loads(text)) == cfg


def _entry(chunk=None, **fields):
    return json.dumps({"path": "in", "file_id": "x", "size": 4, **fields,
                       "chunks": [{"file_id": "x", "index": 0, "offset": 0, "length": 4,
                                   "replicas": [0], **(chunk or {})}]})


@pytest.mark.parametrize("text", [
    _entry(path=7), _entry(size=True), _entry(chunk={"file_id": None}),
    _entry(chunk={"length": 4.0}), _entry(chunk={"replicas": ["0"]}),
], ids=["int-path", "bool-size", "null-chunk-id", "float-length", "str-replica"])
def test_catalog_entry_of_wrong_types_rejected(text):
    with pytest.raises(InvalidConfig):
        FileMeta.from_json(text)
    assert FileMeta.from_json(_entry()).size == 4


@on_both_stores
def test_placement_changes_with_seed():
    data = b"y" * 300
    a = cluster(nodes=5, seed=1).put_file("f", data)
    b = cluster(nodes=5, seed=2).put_file("f", data)
    assert a.to_json() != b.to_json()  # start node rotates with the seed


@on_both_stores
def test_duplicate_path_rejected():
    c = cluster()
    c.put_file("dup", b"a")
    with pytest.raises(AlreadyExists):
        c.put_file("dup", b"b")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_nodes=3, replication=5),
        dict(num_nodes=3, replication=0),
        dict(chunk_size=0),
        dict(num_nodes=0),
        dict(chunk_size=1.5),
        dict(chunk_size=True),
        dict(seed="7"),
    ],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(InvalidConfig):
        ClusterConfig(**kwargs)


@on_both_stores
def test_get_unknown_path():
    with pytest.raises(NotFound):
        cluster().get_file("nope")


@on_both_stores
def test_unknown_file_id_and_node_rejected():
    c = cluster(nodes=4)
    with pytest.raises(NotFound):
        c.meta_by_id("nope")
    with pytest.raises(InvalidConfig):
        c.mark_node_dead(4)


@on_both_stores
def test_put_with_every_node_dead_stores_nothing():
    c = cluster(nodes=2)
    c.mark_node_dead(0)
    c.mark_node_dead(1)
    with pytest.raises(ChunkUnavailable):
        c.put_file("f", b"data\n")
    assert c.list_files() == []


@on_both_stores
def test_roundtrip_simple():
    c = cluster()
    data = bytes(range(256)) * 3
    c.put_file("bin", data)
    assert c.get_file("bin") == data


@on_both_stores
@settings(max_examples=50, deadline=None)
@given(
    data=st.binary(max_size=2000),
    chunk=st.integers(min_value=1, max_value=300),
    nodes=st.integers(min_value=1, max_value=6),
)
def test_roundtrip_and_chunk_invariants(data, chunk, nodes):
    repl = min(2, nodes)
    c = cluster(nodes=nodes, chunk=chunk, repl=repl)
    meta = c.put_file("f", data)
    assert c.get_file("f") == data
    assert sum(ch.length for ch in meta.chunks) == meta.size == len(data)
    assert [ch.index for ch in meta.chunks] == list(range(len(meta.chunks)))
    for ch in meta.chunks:
        assert ch.offset == ch.index * chunk
        assert len(set(ch.replicas)) == repl
        assert ch.length == chunk or ch.index == len(meta.chunks) - 1


@on_both_stores
def test_read_survives_one_dead_replica():
    c = cluster(nodes=3, chunk=40, repl=2)
    data = b"q" * 100
    meta = c.put_file("f", data)
    c.mark_node_dead(meta.chunks[0].replicas[0])
    assert c.get_file("f") == data


@on_both_stores
def test_all_replicas_dead_reports_chunk_index():
    c = cluster(nodes=4, chunk=10, repl=2)
    meta = c.put_file("f", b"z" * 30)
    for node in meta.chunks[1].replicas:
        c.mark_node_dead(node)
    with pytest.raises(ChunkUnavailable) as exc:
        c.get_file("f")
    assert exc.value.chunk_index == 1


@on_both_stores
def test_read_range_matches_slice():
    c = cluster(nodes=3, chunk=7)
    data = bytes(range(100)) + b"tail"
    meta = c.put_file("f", data)
    for start, end in [(0, 0), (0, 5), (3, 29), (6, 8), (50, 104), (90, 500)]:
        assert c.read_range(meta, start, end) == data[start:end]


@pytest.mark.parametrize("kind", ["memory", "disk"])
def test_ranged_read_chunk_matches_slice(kind, tmp_path):
    store = MemoryStore(4) if kind == "memory" else DiskStore(str(tmp_path / "s"), 4)
    whole = bytes(range(50))
    store.write_chunk(1, "fid", 3, whole)
    assert store.read_chunk(1, "fid", 3) == whole
    for lo, hi in [(0, 50), (0, 1), (49, 50), (7, 19), (12, 12), (50, 50), (0, 80), (30, None)]:
        assert store.read_chunk(1, "fid", 3, lo, hi) == whole[lo:hi], (lo, hi)
    if kind == "memory":
        assert store.read_chunk(1, "fid", 3, 0, 50) is store.read_chunk(1, "fid", 3)


# ---------------------------------------------------------------------------
# splits and records


@on_both_stores
def test_one_split_per_chunk_tiling():
    c = cluster(nodes=3, chunk=40)
    meta = c.put_file("f", b"a" * 100)
    splits = c.make_splits(meta)
    assert len(splits) == 3
    assert [(s.start, s.end) for s in splits] == [(0, 40), (40, 80), (80, 100)]
    for s, ch in zip(splits, meta.chunks):
        assert s.preferred_nodes == ch.replicas


@on_both_stores
def test_small_file_single_split():
    c = cluster(chunk=1024)
    meta = c.put_file("f", b"one\ntwo\n")
    splits = c.make_splits(meta)
    assert len(splits) == 1
    assert (splits[0].start, splits[0].end) == (0, 8)


@on_both_stores
def test_full_split_reads_simple_records():
    c = cluster(chunk=64)
    meta = c.put_file("f", b"aa\nbb\n")
    [split] = c.make_splits(meta)
    assert list(dfs.records(c.read_split(split))) == [(0, b"aa"), (3, b"bb")]


@on_both_stores
def test_boundary_mid_record_ownership():
    # "aaa\nbb|bb\ncc" with the chunk boundary at "|": the record "bbbb"
    # starts in the first split and is read to completion there
    c = cluster(nodes=3, chunk=6, repl=1)
    meta = c.put_file("f", b"aaa\nbbbb\ncc")
    s0, s1 = c.make_splits(meta)
    assert [r.line for r in dfs.records(c.read_split(s0))] == [b"aaa", b"bbbb"]
    assert [r.line for r in dfs.records(c.read_split(s1))] == [b"cc"]


@on_both_stores
def test_boundary_exactly_at_record_start():
    # split 1 starts exactly on a record boundary and must own that record
    c = cluster(nodes=3, chunk=4, repl=1)
    meta = c.put_file("f", b"aaa\nbbb\n")
    s0, s1 = c.make_splits(meta)
    assert [r.line for r in dfs.records(c.read_split(s0))] == [b"aaa"]
    assert [r.line for r in dfs.records(c.read_split(s1))] == [b"bbb"]


@on_both_stores
def test_split_concat_equals_line_oracle():
    c = cluster(nodes=4, chunk=13)
    data = b"alpha\nbeta gamma\n\ndelta\nepsilon zeta eta\ntail-no-newline"
    meta = c.put_file("f", data)
    got = [r.line for s in c.make_splits(meta) for r in dfs.records(c.read_split(s))]
    assert got == oracles.split_lines(data)


@on_both_stores
@settings(max_examples=120, deadline=None)
@given(
    lines=st.lists(st.binary(max_size=40).filter(lambda b: b"\n" not in b), max_size=30),
    trailing=st.booleans(),
    chunk=st.integers(min_value=1, max_value=50),
)
def test_split_completeness_property(lines, trailing, chunk):
    data = b"\n".join(lines)
    if trailing and data:
        data += b"\n"
    c = cluster(nodes=3, chunk=chunk, repl=1)
    meta = c.put_file("f", data)
    records = [r for s in c.make_splits(meta) for r in dfs.records(c.read_split(s))]
    assert [r.line for r in records] == oracles.split_lines(data)
    assert [r.offset for r in records] == [
        off for off, _ in oracles.records_with_offsets(data)
    ]


_lines = st.lists(
    st.one_of(
        st.just(b""),
        st.binary(max_size=6),
        st.binary(min_size=17, max_size=150),  # longer than any block, often than a chunk
    ).map(lambda b: b.replace(b"\n", b"")),
    max_size=25,
)


def _check_block_scan(c, lines, trailing, block, tail):
    data = b"\n".join(lines)
    if trailing and data:
        data += b"\n"
    meta = c.put_file("f", data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dfs, "_BLOCK", block)
        mp.setattr(dfs, "_TAIL", tail)
        blocks = [b for s in c.make_splits(meta) for b in c.read_split(s)]
    records = list(dfs.records(blocks))
    assert records == oracles.records_with_offsets(data)
    # each block is the next run of whole records, joined by newlines
    expected = iter(oracles.records_with_offsets(data))
    for offset, text in blocks:
        recs = list(itertools.islice(expected, text.count(b"\n") + 1))
        assert b"\n".join(line for _, line in recs) == text
        assert recs[0][0] == offset
        if len(text) > block:
            assert len(recs) == 1


@settings(max_examples=300, deadline=None)
@given(lines=_lines, trailing=st.booleans(), chunk=st.integers(1, 64),
       block=st.integers(1, 16), tail=st.integers(1, 16))
def test_block_scan_matches_oracle_memory(lines, trailing, chunk, block, tail):
    _check_block_scan(cluster(nodes=3, chunk=chunk, repl=1), lines, trailing, block, tail)


@settings(max_examples=15, deadline=None)
@given(lines=_lines, trailing=st.booleans(), chunk=st.integers(1, 64),
       block=st.integers(1, 16), tail=st.integers(1, 16))
def test_block_scan_matches_oracle_disk(lines, trailing, chunk, block, tail):
    with tempfile.TemporaryDirectory() as root:
        c = Cluster.open_disk(root, ClusterConfig(num_nodes=3, chunk_size=chunk,
                                                  replication=1, seed=7))
        _check_block_scan(c, lines, trailing, block, tail)


@on_both_stores
def test_block_without_newline_cuts_the_long_record_only(monkeypatch):
    # the 20-byte record fills a whole 8-byte block with no newline in it;
    # the records after it must still be cut one by one
    monkeypatch.setattr(dfs, "_BLOCK", 8)
    c = cluster(chunk=64)
    meta = c.put_file("f", b"a\n" + b"x" * 20 + b"\nbb\ncc\n")
    [split] = c.make_splits(meta)
    assert list(dfs.records(c.read_split(split))) == [
        (0, b"a"), (2, b"x" * 20), (23, b"bb"), (26, b"cc")]


@pytest.mark.parametrize("kind", ["memory", "disk"])
def test_split_reads_own_bytes_once(kind, tmp_path):
    cfg = ClusterConfig(num_nodes=3, chunk_size=64 << 10, replication=2, seed=7)
    c = Cluster(cfg) if kind == "memory" else Cluster.open_disk(str(tmp_path / "s"), cfg)
    data = b"".join(b"line %d of the input\n" % i for i in range(50_000))
    assert 1 << 20 <= len(data) < 2 << 20
    meta = c.put_file("f", data)
    reads = []  # (split index, chunk index, bytes) of every chunk read
    split_index = [None]
    orig = c.store.read_chunk

    def counting(node, file_id, index, *args):
        out = orig(node, file_id, index, *args)
        reads.append((split_index[0], index, len(out)))
        return out

    c.store.read_chunk = counting
    records = []
    for s in c.make_splits(meta):
        split_index[0] = s.split_index
        records += dfs.records(c.read_split(s))
    assert records == oracles.records_with_offsets(data)
    assert sum(n for _, _, n in reads) <= 1.01 * len(data)
    for s in c.make_splits(meta)[1:]:
        # the boundary test is the only read of the previous chunk
        assert [n for i, ci, n in reads if i == s.split_index and ci == s.split_index - 1] == [1]


@on_both_stores
@pytest.mark.parametrize("dead_chunk", [1, 2])
def test_dead_tail_chunk_raises_instead_of_truncating(dead_chunk):
    # "b"*20 starts in chunk 0 and runs through chunks 1-3
    c = cluster(nodes=4, chunk=8, repl=2)
    meta = c.put_file("f", b"aaaa\n" + b"b" * 20 + b"\ncc\n")
    for node in meta.chunks[dead_chunk].replicas:
        c.mark_node_dead(node)
    got = []
    with pytest.raises(ChunkUnavailable) as exc:
        for r in dfs.records(c.read_split(c.make_splits(meta)[0])):
            got.append(r)
    assert exc.value.chunk_index == dead_chunk
    assert got == [(0, b"aaaa")]


# ---------------------------------------------------------------------------
# reducer output


@on_both_stores
def test_part_file_naming_and_format():
    c = cluster()
    c.write_output("job/out", 0, [(b"a", b"1")])
    c.write_output("job/out", 1, [])
    assert c.get_file("job/out/part-r-00000") == b"a\t1\n"
    assert c.get_file("job/out/part-r-00001") == b""
    assert part_file_path("job/out", 0) == "job/out/part-r-00000"


@on_both_stores
def test_rewritten_part_replaces_content():
    c = cluster()
    c.write_output("o", 0, [(b"a", b"1")])
    c.write_output("o", 0, [(b"a", b"2"), (b"b", b"3")])
    assert c.get_file("o/part-r-00000") == b"a\t2\nb\t3\n"


@on_both_stores
def test_part_survives_replica_node_death():
    c = cluster(nodes=4, repl=2)
    c.write_output("o", 0, [(b"k", b"v")])
    meta = c.meta("o/part-r-00000")
    c.mark_node_dead(meta.chunks[0].replicas[0])
    assert c.get_file("o/part-r-00000") == b"k\tv\n"


@pytest.mark.parametrize("kind", ["memory", "disk"])
def test_part_rewritten_after_a_death_keeps_exactly_its_listed_replicas(kind, tmp_path):
    config = ClusterConfig(num_nodes=4, chunk_size=40, replication=2, seed=7)
    c = Cluster(config) if kind == "memory" else Cluster.open_disk(str(tmp_path / "s"), config)
    pairs = [(b"k%d" % i, b"v" * 32) for i in range(4)]  # 36 bytes a line
    old = c.meta(c.write_output("o", 0, pairs))
    assert len(old.chunks) == 4
    c.mark_node_dead(old.chunks[-1].replicas[0])
    new = c.meta(c.write_output("o", 0, pairs[:2]))
    assert len(new.chunks) == 2
    # every replica the catalog lists exists, and no other chunk is left
    for ch in new.chunks:
        for node in ch.replicas:
            c.store.read_chunk(node, ch.file_id, ch.index)
    assert oracles.store_problems(c) == []
    assert c.get_file("o/part-r-00000") == b"".join(k + b"\t" + v + b"\n" for k, v in pairs[:2])


def _store_cluster(kind, root, num_nodes=4, chunk_size=4, replication=2, seed=7):
    config = ClusterConfig(num_nodes=num_nodes, chunk_size=chunk_size,
                           replication=replication, seed=seed)
    return Cluster(config) if kind == "memory" else Cluster.open_disk(str(root), config)


def _missing_replicas(c):
    return [p for p in oracles.store_problems(c) if p[0] == "missing"]


@pytest.mark.parametrize("kind", ["memory", "disk"])
def test_failed_overwrite_leaves_the_old_file_whole(kind, tmp_path):
    c = _store_cluster(kind, tmp_path / "s")
    c.put_file("f", b"aaaabbbbcccc")
    write_chunk = c.store.write_chunk

    def write_chunk_failing_at_1(node, file_id, index, data):
        if index == 1:
            raise OSError("disk full")
        write_chunk(node, file_id, index, data)

    c.store.write_chunk = write_chunk_failing_at_1
    with pytest.raises(OSError, match="disk full"):
        c.put_file("f", b"xxxxyyyyzzzz", overwrite=True)
    assert c.get_file("f") == b"aaaabbbbcccc"
    # the failed overwrite deleted the chunks it had written
    assert oracles.store_problems(c) == []


@pytest.mark.parametrize("kind", ["memory", "disk"])
def test_overwrite_interleaved_with_a_death_and_a_whole_overwrite(kind, tmp_path):
    # writer B has written its chunks; before its put_meta lands, a replica
    # node of the old entry dies and writer A runs a whole overwrite
    c = _store_cluster(kind, tmp_path / "s")
    old = c.put_file("f", b"o" * 40)
    put_meta = c.store.put_meta

    def put_meta_after_a(meta):
        c.store.put_meta = put_meta
        c.mark_node_dead(old.chunks[0].replicas[0])
        c.put_file("f", b"a" * 40, overwrite=True)
        put_meta(meta)

    c.store.put_meta = put_meta_after_a
    c.put_file("f", b"b" * 40, overwrite=True)
    assert _missing_replicas(c) == []
    assert c.get_file("f") == b"b" * 40


@pytest.mark.parametrize("kind", ["memory", "disk"])
@pytest.mark.parametrize("node", [True, 1.0, "1"])
def test_node_id_of_wrong_type_kills_nothing(kind, node, tmp_path):
    # True == 1: a memory store once marked node 1 dead, a disk store wrote nodeTrue/DEAD
    c = _store_cluster(kind, tmp_path / "s")
    with pytest.raises(InvalidConfig):
        c.mark_node_dead(node)
    assert c.live_nodes() == [0, 1, 2, 3]
    assert not c.store.is_dead(node)


@pytest.mark.parametrize("kind", ["memory", "disk"])
@pytest.mark.parametrize("change", [
    {"size": 5}, {"file_id": "0" * 16}, {"chunks": [{"file_id": "x", "index": 0, "offset": 0,
                                                     "length": 4, "replicas": [4]}]},
], ids=["size-past-chunks", "wrong-file-id", "replica-out-of-range"])
def test_garbled_catalog_entry_rejected_on_both_stores(kind, change, tmp_path):
    c = _store_cluster(kind, tmp_path / "s")
    meta = c.put_file("f", b"data")
    key = f"meta/{meta.file_id}.json"
    c.store._put(key, json.dumps({**json.loads(meta.to_json()), **change}).encode())
    for read in (lambda: c.meta("f"), lambda: c.meta_by_id(meta.file_id), c.list_files):
        with pytest.raises(InvalidConfig, match=f"unreadable catalog entry '{key}'"):
            read()


@pytest.mark.parametrize("data", [b"data", b""], ids=["chunk", "meta"])
def test_failed_write_leaves_no_temp_file(data, tmp_path, monkeypatch):
    # b"data" fails in its one chunk write; b"" has no chunk, so its put_meta fails
    c = _store_cluster("disk", tmp_path / "s", replication=1)

    def replace_failing(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", replace_failing)
    with pytest.raises(OSError, match="rename failed"):
        c.put_file("f", data)
    monkeypatch.undo()
    assert oracles.store_problems(c) == []
    assert c.list_files() == []
    assert [str(p) for p in (tmp_path / "s").rglob("*.tmp*")] == []


def test_store_problems_reports_a_stray_temp_file(tmp_path):
    c = _store_cluster("disk", tmp_path / "s", replication=1)
    c.put_file("f", b"data")
    [chunk] = c.meta("f").chunks
    [node] = chunk.replicas
    name = f"{file_id_for('f')}.0.tmp{'0' * 32}"
    (tmp_path / "s" / f"node{node}" / name).write_bytes(b"da")
    assert oracles.store_problems(c) == [("stray", node, name, -1)]


_STEPS = st.tuples(st.sampled_from(["put", "overwrite", "death", "failed overwrite"]),
                   st.integers(0, 2), st.binary(max_size=40), st.integers(0, 5))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(kind=st.sampled_from(["memory", "disk"]), steps=st.lists(_STEPS, max_size=12))
def test_every_step_keeps_last_puts_readable_and_listed_replicas_stored(kind, steps):
    with tempfile.TemporaryDirectory() as tmp:
        c = _store_cluster(kind, os.path.join(tmp, "s"), chunk_size=8, replication=3)
        write_chunk = c.store.write_chunk
        files: dict[str, bytes] = {}
        for op, i, data, n in steps:
            path = f"p{i}"
            if op == "death":
                if len(c.live_nodes()) > c.config.num_nodes - (c.config.replication - 1):
                    c.mark_node_dead(n % c.config.num_nodes)
            elif op == "put" and path in files:
                with pytest.raises(AlreadyExists):
                    c.put_file(path, data)
            elif op == "failed overwrite" and n * c.config.chunk_size < len(data):
                def write_chunk_failing_at_n(node, file_id, index, piece, n=n):
                    if index == n:
                        raise OSError("disk full")
                    write_chunk(node, file_id, index, piece)

                c.store.write_chunk = write_chunk_failing_at_n
                with pytest.raises(OSError, match="disk full"):
                    c.put_file(path, data, overwrite=True)
                c.store.write_chunk = write_chunk
            else:
                c.put_file(path, data, overwrite=op != "put")
                files[path] = data
            for p, expected in files.items():
                assert c.get_file(p) == expected
            assert oracles.store_problems(c) == []


# ---------------------------------------------------------------------------
# put from pieces, streamed get


@pytest.mark.parametrize("kind", ["memory", "disk"])
def test_failed_piece_iterator_deletes_the_chunks_it_wrote(kind, tmp_path):
    c = _store_cluster(kind, tmp_path / "s")
    c.put_file("old", b"aaaabbbb")

    def pieces():
        yield b"xxxxy"
        yield b"yyy"  # two whole chunks are written by now
        raise RuntimeError("source failed")

    for path in ("new", "old"):
        with pytest.raises(RuntimeError, match="source failed"):
            c.put_file(path, pieces(), overwrite=True)
    assert [m.path for m in c.list_files()] == ["old"]
    assert c.get_file("old") == b"aaaabbbb"
    assert oracles.store_problems(c) == []


_INPUT_TYPES = ("bytes", "bytearray", "memoryview", "pieces", "one refilled buffer")


def _through_one_buffer(pieces):
    """The pieces, each as a view of one buffer that the next one refills."""
    buf = bytearray(max(map(len, pieces), default=0))
    for piece in pieces:
        buf[:] = bytes(len(buf))
        buf[:len(piece)] = piece
        yield memoryview(buf)[:len(piece)]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(kind=st.sampled_from(["memory", "disk"]), data=st.binary(max_size=120),
       chunk=st.integers(1, 50), cuts=st.lists(st.integers(0, 120), max_size=6),
       input_type=st.sampled_from(_INPUT_TYPES), mutable_pieces=st.booleans())
def test_every_input_form_stores_what_a_bytes_put_stores(
        kind, data, chunk, cuts, input_type, mutable_pieces):
    with tempfile.TemporaryDirectory() as tmp:
        want = _store_cluster(kind, os.path.join(tmp, "a"), chunk_size=chunk)
        want_meta = want.put_file("f", data)
        c = _store_cluster(kind, os.path.join(tmp, "b"), chunk_size=chunk)
        # cut points at or past the end, and repeated ones, give empty pieces
        bounds = [0, *sorted(min(x, len(data)) for x in cuts), len(data)]
        pieces = [bytearray(data[a:b]) if mutable_pieces else data[a:b]
                  for a, b in zip(bounds, bounds[1:])]
        given_data = {"bytes": data, "bytearray": bytearray(data),
                      "memoryview": memoryview(bytearray(data) if mutable_pieces else data),
                      "pieces": iter(pieces),
                      "one refilled buffer": _through_one_buffer(pieces)}[input_type]
        meta = c.put_file("f", given_data)
        for held in (given_data, *pieces):  # what the caller holds may change
            if isinstance(held, (bytearray, memoryview)) and not memoryview(held).readonly:
                held[:] = bytes(len(held))
        assert meta.to_json() == want_meta.to_json()
        for ch in meta.chunks:
            for node in ch.replicas:
                assert c.store.read_chunk(node, ch.file_id, ch.index) == (
                    data[ch.offset:ch.offset + ch.length])
        assert c.get_file("f") == data


def test_memory_store_keeps_a_view_of_bytes_and_copies_a_bytearray():
    store = MemoryStore(2)
    data = b"abcdef"
    store.write_chunk(0, "v", 0, memoryview(data)[2:5])
    store.write_chunk(0, "w", 0, data)
    store.write_chunk(0, "m", 0, bytearray(data))
    assert store._objects["node0/v.0"].obj is data  # no copy of the caller's bytes
    assert store.read_chunk(0, "v", 0) == b"cde"
    assert store.read_chunk(0, "v", 0, 1, 2) == b"d"
    assert type(store.read_chunk(0, "v", 0)) is bytes
    assert store.read_chunk(0, "w", 0) is data
    assert type(store._objects["node0/m.0"]) is bytes


def _peak_bytes(fn) -> int:
    """The tracemalloc peak above the level at the call, while ``fn`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


_CHUNK = 64 * 1024


def _disk_cluster(root):
    return Cluster.open_disk(str(root), ClusterConfig(num_nodes=4, chunk_size=_CHUNK,
                                                      replication=2, seed=7))


def test_put_of_bytes_copies_no_chunk(tmp_path):
    c = _disk_cluster(tmp_path / "s")
    data = os.urandom(8 * _CHUNK)
    assert _peak_bytes(lambda: c.put_file("f", data)) < _CHUNK
    assert c.get_file("f") == data


@pytest.mark.parametrize("n_chunks", [8, 32])
def test_put_from_pieces_and_streamed_get_hold_under_two_chunks(n_chunks, tmp_path):
    c = _disk_cluster(tmp_path / "s")
    piece = _CHUNK // 3 + 7
    n_pieces = n_chunks * _CHUNK // piece

    def pieces():  # each piece is made as it is asked for
        for i in range(n_pieces):
            yield bytes([i % 251]) * piece

    assert _peak_bytes(lambda: c.put_file("f", pieces())) < 2 * _CHUNK
    out = str(tmp_path / "out")  # as dfs get --output writes it
    assert _peak_bytes(lambda: dfs.atomic_write(out, c.iter_file("f"))) < 2 * _CHUNK
    with open(out, "rb") as f:
        assert f.read() == b"".join(pieces())


# ---------------------------------------------------------------------------
# disk store


def test_disk_layout_matches_contract(tmp_path):
    root = tmp_path / "store"
    c = Cluster.open_disk(str(root), ClusterConfig(num_nodes=3, chunk_size=40,
                                                   replication=2, seed=7))
    meta = c.put_file("t", b"x" * 100)
    fid = file_id_for("t")
    assert fid == meta.file_id
    for ch in meta.chunks:
        for node in ch.replicas:
            assert (root / f"node{node}" / f"{fid}.{ch.index}").exists()


def test_disk_and_memory_agree(tmp_path):
    data = b"hello world\n" * 20
    mem = cluster(nodes=3, chunk=32, seed=5)
    dsk = Cluster.open_disk(str(tmp_path / "s"),
                            ClusterConfig(num_nodes=3, chunk_size=32,
                                          replication=2, seed=5))
    m1 = mem.put_file("f", data)
    m2 = dsk.put_file("f", data)
    assert m1.to_json() == m2.to_json()
    assert mem.get_file("f") == dsk.get_file("f") == data
    mem.put_file("a/e", b"e")
    dsk.put_file("a/e", b"e")
    assert mem.list_files() == dsk.list_files() == [mem.meta("a/e"), m1]


def test_disk_config_persisted_and_conflicts_rejected(tmp_path):
    root = str(tmp_path / "s")
    cfg = ClusterConfig(num_nodes=3, chunk_size=32, replication=2, seed=5)
    Cluster.open_disk(root, cfg)
    again = Cluster.open_disk(root)  # picks up the stored config
    assert again.config == cfg
    with pytest.raises(InvalidConfig):
        Cluster.open_disk(root, ClusterConfig(num_nodes=8))


def test_open_disk_without_config_creates_nothing(tmp_path):
    root = tmp_path / "missing"
    with pytest.raises(NotFound, match="not found: it has no cluster.json"):
        Cluster.open_disk(str(root))
    assert not root.exists()
    cfg = ClusterConfig(num_nodes=3, chunk_size=32, replication=2, seed=5)
    assert Cluster.open_disk(str(root), cfg).config == cfg  # a config creates the store
    assert Cluster.open_disk(str(root)).config == cfg


def test_disk_dead_marker_visible_to_new_handles(tmp_path):
    root = str(tmp_path / "s")
    cfg = ClusterConfig(num_nodes=2, chunk_size=32, replication=2, seed=5)
    a = Cluster.open_disk(root, cfg)
    a.put_file("f", b"data")
    a.mark_node_dead(0)
    b = Cluster.open_disk(root)  # fresh handle, e.g. another process
    assert b.is_node_dead(0)
    assert b.get_file("f") == b"data"  # replica on node 1 still serves


@pytest.mark.parametrize("kind", ["memory", "disk"])
def test_delete_local_tree_spares_sibling_prefixes(kind, tmp_path):
    store = MemoryStore(4) if kind == "memory" else DiskStore(str(tmp_path / "s"), 4)
    for name in ("runs/wc2/x", "runs/wc/x"):
        sink = store.open_local_write(0, name)
        sink.write(name.encode())
        sink.close()
    store.delete_local_tree(0, "runs/wc")
    with store.open_local_read(0, "runs/wc2/x") as f:
        assert f.read() == b"runs/wc2/x"
    with pytest.raises(NotFound):
        store.open_local_read(0, "runs/wc/x")


@pytest.mark.parametrize("kind", ["memory", "disk"])
def test_local_sink_dropped_without_close_publishes_nothing(kind, tmp_path):
    c = _store_cluster(kind, tmp_path / "s")
    sink = c.store.open_local_write(0, "runs/j/map-0.0.0")
    sink.write(b"partial")
    del sink
    gc.collect()
    with pytest.raises(NotFound):
        c.store.open_local_read(0, "runs/j/map-0.0.0")
    assert oracles.local_leftovers(c) == []


def test_disk_local_writers_of_one_name_do_not_share_a_temp_file(tmp_path):
    store = Cluster.open_disk(str(tmp_path / "s"),
                              ClusterConfig(num_nodes=2, chunk_size=32,
                                            replication=2, seed=5)).store
    first = store.open_local_write(0, "runs/j/map-0.0.0")
    second = store.open_local_write(0, "runs/j/map-0.0.0")
    first.write(b"first attempt")
    second.write(b"second attempt")
    first.close()
    second.close()
    with store.open_local_read(0, "runs/j/map-0.0.0") as f:
        assert f.read() in (b"first attempt", b"second attempt")
    assert os.listdir(tmp_path / "s" / "node0" / "local" / "runs" / "j") == ["map-0.0.0"]
