"""Storage layer: chunking, placement, replicas, splits, record reading."""

import gc
import itertools
import json
import os
import tempfile

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


def cluster(nodes=3, chunk=40, repl=2, seed=7, store=None):
    return Cluster(ClusterConfig(num_nodes=nodes, chunk_size=chunk,
                                 replication=repl, seed=seed), store)


# ---------------------------------------------------------------------------
# put_file / get_file


def test_100_byte_file_makes_three_chunks():
    c = cluster(nodes=3, chunk=40, repl=2)
    meta = c.put_file("t", b"x" * 100)
    assert [ch.length for ch in meta.chunks] == [40, 40, 20]
    assert [ch.offset for ch in meta.chunks] == [0, 40, 80]
    for ch in meta.chunks:
        assert len(set(ch.replicas)) == 2


def test_empty_file_has_zero_chunks():
    c = cluster()
    meta = c.put_file("empty", b"")
    assert meta.size == 0 and meta.chunks == ()
    assert c.get_file("empty") == b""
    assert c.make_splits(meta) == []


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


def test_placement_changes_with_seed():
    data = b"y" * 300
    a = cluster(nodes=5, seed=1).put_file("f", data)
    b = cluster(nodes=5, seed=2).put_file("f", data)
    assert a.to_json() != b.to_json()  # start node rotates with the seed


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


def test_get_unknown_path():
    with pytest.raises(NotFound):
        cluster().get_file("nope")


def test_roundtrip_simple():
    c = cluster()
    data = bytes(range(256)) * 3
    c.put_file("bin", data)
    assert c.get_file("bin") == data


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


def test_read_survives_one_dead_replica():
    c = cluster(nodes=3, chunk=40, repl=2)
    data = b"q" * 100
    meta = c.put_file("f", data)
    c.mark_node_dead(meta.chunks[0].replicas[0])
    assert c.get_file("f") == data


def test_all_replicas_dead_reports_chunk_index():
    c = cluster(nodes=4, chunk=10, repl=2)
    meta = c.put_file("f", b"z" * 30)
    for node in meta.chunks[1].replicas:
        c.mark_node_dead(node)
    with pytest.raises(ChunkUnavailable) as exc:
        c.get_file("f")
    assert exc.value.chunk_index == 1


def test_read_range_matches_slice():
    c = cluster(nodes=3, chunk=7)
    data = bytes(range(100)) + b"tail"
    meta = c.put_file("f", data)
    for start, end in [(0, 0), (0, 5), (3, 29), (6, 8), (50, 104), (90, 500)]:
        assert c.read_range(meta, start, end) == data[start:end]


@pytest.mark.parametrize("kind", ["memory", "disk"])
def test_ranged_read_chunk_matches_slice(kind, tmp_path):
    store = MemoryStore() if kind == "memory" else DiskStore(str(tmp_path / "s"))
    whole = bytes(range(50))
    store.write_chunk(1, "fid", 3, whole)
    assert store.read_chunk(1, "fid", 3) == whole
    for lo, hi in [(0, 50), (0, 1), (49, 50), (7, 19), (12, 12), (50, 50), (0, 80), (30, None)]:
        assert store.read_chunk(1, "fid", 3, lo, hi) == whole[lo:hi], (lo, hi)
    if kind == "memory":
        assert store.read_chunk(1, "fid", 3, 0, 50) is store.read_chunk(1, "fid", 3)


# ---------------------------------------------------------------------------
# splits and records


def test_one_split_per_chunk_tiling():
    c = cluster(nodes=3, chunk=40)
    meta = c.put_file("f", b"a" * 100)
    splits = c.make_splits(meta)
    assert len(splits) == 3
    assert [(s.start, s.end) for s in splits] == [(0, 40), (40, 80), (80, 100)]
    for s, ch in zip(splits, meta.chunks):
        assert s.preferred_nodes == ch.replicas


def test_small_file_single_split():
    c = cluster(chunk=1024)
    meta = c.put_file("f", b"one\ntwo\n")
    splits = c.make_splits(meta)
    assert len(splits) == 1
    assert (splits[0].start, splits[0].end) == (0, 8)


def test_full_split_reads_simple_records():
    c = cluster(chunk=64)
    meta = c.put_file("f", b"aa\nbb\n")
    [split] = c.make_splits(meta)
    assert list(dfs.records(c.read_split(split))) == [(0, b"aa"), (3, b"bb")]


def test_boundary_mid_record_ownership():
    # "aaa\nbb|bb\ncc" with the chunk boundary at "|": the record "bbbb"
    # starts in the first split and is read to completion there
    c = cluster(nodes=3, chunk=6, repl=1)
    meta = c.put_file("f", b"aaa\nbbbb\ncc")
    s0, s1 = c.make_splits(meta)
    assert [r.line for r in dfs.records(c.read_split(s0))] == [b"aaa", b"bbbb"]
    assert [r.line for r in dfs.records(c.read_split(s1))] == [b"cc"]


def test_boundary_exactly_at_record_start():
    # split 1 starts exactly on a record boundary and must own that record
    c = cluster(nodes=3, chunk=4, repl=1)
    meta = c.put_file("f", b"aaa\nbbb\n")
    s0, s1 = c.make_splits(meta)
    assert [r.line for r in dfs.records(c.read_split(s0))] == [b"aaa"]
    assert [r.line for r in dfs.records(c.read_split(s1))] == [b"bbb"]


def test_split_concat_equals_line_oracle():
    c = cluster(nodes=4, chunk=13)
    data = b"alpha\nbeta gamma\n\ndelta\nepsilon zeta eta\ntail-no-newline"
    meta = c.put_file("f", data)
    got = [r.line for s in c.make_splits(meta) for r in dfs.records(c.read_split(s))]
    assert got == oracles.split_lines(data)


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


def test_part_file_naming_and_format():
    c = cluster()
    c.write_output("job/out", 0, [(b"a", b"1")])
    c.write_output("job/out", 1, [])
    assert c.get_file("job/out/part-r-00000") == b"a\t1\n"
    assert c.get_file("job/out/part-r-00001") == b""
    assert part_file_path("job/out", 0) == "job/out/part-r-00000"


def test_rewritten_part_replaces_content():
    c = cluster()
    c.write_output("o", 0, [(b"a", b"1")])
    c.write_output("o", 0, [(b"a", b"2"), (b"b", b"3")])
    assert c.get_file("o/part-r-00000") == b"a\t2\nb\t3\n"


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
    # the overwrite's partial chunks are unlisted orphans, left for a sweep
    assert _missing_replicas(c) == []


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


def test_store_problems_reports_the_temp_file_of_a_failed_write(tmp_path, monkeypatch):
    c = _store_cluster("disk", tmp_path / "s", replication=1)

    def replace_failing(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", replace_failing)
    with pytest.raises(OSError, match="rename failed"):
        c.put_file("f", b"data")
    monkeypatch.undo()
    [(problem, node, name, index)] = oracles.store_problems(c)
    assert (problem, index) == ("stray", -1)
    assert name.startswith(file_id_for("f") + ".0.tmp")
    assert os.path.isfile(tmp_path / "s" / f"node{node}" / name)


_STEPS = st.tuples(st.sampled_from(["put", "overwrite", "death", "failed overwrite"]),
                   st.integers(0, 2), st.binary(max_size=40), st.integers(0, 5))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(kind=st.sampled_from(["memory", "disk"]), steps=st.lists(_STEPS, max_size=12))
def test_every_step_keeps_last_puts_readable_and_listed_replicas_stored(kind, steps):
    with tempfile.TemporaryDirectory() as tmp:
        c = _store_cluster(kind, os.path.join(tmp, "s"), chunk_size=8, replication=3)
        write_chunk = c.store.write_chunk
        files: dict[str, bytes] = {}
        failed = False
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
                failed = True
            else:
                c.put_file(path, data, overwrite=op != "put")
                files[path] = data
            for p, expected in files.items():
                assert c.get_file(p) == expected
            problems = oracles.store_problems(c)
            if failed:  # a failed overwrite's partial chunks stay as orphans
                problems = [p for p in problems if p[0] == "missing"]
            assert problems == []


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
    store = MemoryStore() if kind == "memory" else DiskStore(str(tmp_path / "s"))
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
