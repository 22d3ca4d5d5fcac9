"""CLI surface: exit codes, stdout formats, flag validation."""

import json

import pytest

from minimapred import Cluster, ClusterConfig, ReportError, bench, cli
from minimapred.cli import main
from minimapred.dfs import DiskStore, file_id_for

import oracles
from test_dfs import _peak_bytes
from test_engine import random_tokens


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MINIMAPRED_STORE", raising=False)
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


def test_put_then_cat_roundtrip(tmp_path, capsysbinary):
    src = tmp_path / "local.txt"
    src.write_bytes(b"alpha beta\ngamma\n")
    assert run_cli("dfs", "put", str(src), "data/tokens") == 0
    capsysbinary.readouterr()
    assert run_cli("dfs", "cat", "data/tokens") == 0
    assert capsysbinary.readouterr().out == b"alpha beta\ngamma\n"


def test_get_writes_local_file(tmp_path, capsys):
    src = tmp_path / "a.bin"
    src.write_bytes(bytes(range(200)))
    run_cli("dfs", "put", str(src), "a")
    dest = tmp_path / "back.bin"
    assert run_cli("dfs", "get", "a", "--output", str(dest)) == 0
    assert dest.read_bytes() == bytes(range(200))


@pytest.mark.parametrize("size", [4500, 0], ids=["five-chunks", "empty"])
def test_put_then_get_roundtrips_in_chunk_size_pieces(tmp_path, capsysbinary, size):
    data = bytes(i * 7 % 256 for i in range(size))
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    assert run_cli("dfs", "put", str(src), "d", "--chunk-size", "1000") == 0
    assert capsysbinary.readouterr().out == (
        f"stored d ({size} bytes, {-(-size // 1000)} chunks)\n".encode())
    assert run_cli("dfs", "get", "d", "--output", str(tmp_path / "back.bin")) == 0
    assert (tmp_path / "back.bin").read_bytes() == data
    assert run_cli("dfs", "cat", "d") == 0
    assert capsysbinary.readouterr().out == data


@pytest.mark.parametrize("n_chunks", [8, 32])
def test_put_reads_into_one_chunk_buffer(tmp_path, n_chunks):
    chunk = 64 * 1024
    src = tmp_path / "src.bin"
    src.write_bytes(bytes(range(256)) * (n_chunks * chunk // 256))
    c = Cluster.open_disk(str(tmp_path / "s"), ClusterConfig(chunk_size=chunk))
    with open(src, "rb") as f:
        assert _peak_bytes(lambda: c.put_file("d", cli._reads(f, chunk))) < 2 * chunk
    assert c.get_file("d") == src.read_bytes()


def test_get_output_of_an_unavailable_chunk_exits_2_and_writes_nothing(tmp_path, capsys):
    src = tmp_path / "src.bin"
    src.write_bytes(b"x" * 2500)
    assert run_cli("dfs", "put", str(src), "d", "--chunk-size", "1000") == 0
    cluster = Cluster.open_disk(str(tmp_path / "minimapred_store"))
    for node in cluster.meta("d").chunks[1].replicas:  # chunk 0 is still written
        cluster.mark_node_dead(node)
    out = tmp_path / "out" / "back.bin"
    out.parent.mkdir()
    capsys.readouterr()
    assert run_cli("dfs", "get", "d", "--output", str(out)) == 2
    assert "chunk 1" in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []


def test_ls_reports_three_chunks(tmp_path, capsys):
    src = tmp_path / "f"
    src.write_bytes(b"x" * 100)
    run_cli("dfs", "put", str(src), "f", "--chunk-size", "40")
    capsys.readouterr()
    assert run_cli("dfs", "ls") == 0
    out = capsys.readouterr().out
    assert "chunks=3" in out
    assert "replicas=" in out


def test_get_unknown_path_exits_2(capsys):
    assert run_cli("dfs", "cat", "missing") == 2
    err = capsys.readouterr().err
    assert "not found" in err


@pytest.mark.parametrize("argv", [
    ["dfs", "get", "nothing"],
    ["dfs", "cat", "nothing"],
    ["dfs", "ls"],
    ["job", "run", "wordcount", "--input", "in", "--output", "out"],
], ids=["get", "cat", "ls", "job-run"])
def test_read_only_command_on_missing_store_exits_2_and_creates_nothing(
        tmp_path, capsys, argv):
    root = tmp_path / "typo"
    assert run_cli(*argv, "--store-root", str(root)) == 2
    err = capsys.readouterr().err
    assert "not found" in err and str(root) in err
    assert not root.exists()


def test_duplicate_put_exits_2(tmp_path, capsys):
    src = tmp_path / "f"
    src.write_bytes(b"x")
    assert run_cli("dfs", "put", str(src), "f") == 0
    assert run_cli("dfs", "put", str(src), "f") == 2


def test_invalid_replication_exits_2(tmp_path, capsys):
    src = tmp_path / "f"
    src.write_bytes(b"x")
    code = run_cli("dfs", "put", str(src), "f", "--replication", "5", "--nodes", "3")
    assert code == 2
    assert "replication" in capsys.readouterr().err


def test_job_run_wordcount_two_parts(tmp_path, capsys):
    src = tmp_path / "tok"
    src.write_bytes(b"a b a\nc a b\n" * 50)
    run_cli("dfs", "put", str(src), "tok", "--chunk-size", "64")
    capsys.readouterr()
    code = run_cli("job", "run", "wordcount", "--input", "tok", "--output", "out",
                   "--reducers", "2", "--executor", "serial")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["phase"] == "done"
    assert report["parts"] == ["out/part-r-00000", "out/part-r-00001"]
    counts = {}
    for part in report["parts"]:
        run_cli("dfs", "cat", part)
        for line in capsys.readouterr().out.splitlines():
            k, v = line.split("\t")
            counts[k] = int(v)
    assert counts == {"a": 150, "b": 100, "c": 50}


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_job_run_wordcount_without_combiner_matches_combined_and_oracle(
        tmp_path, capsysbinary, executor):
    data = random_tokens(11, n=3000, vocab=60)
    src = tmp_path / "tok"
    src.write_bytes(data)
    run_cli("dfs", "put", str(src), "tok", "--chunk-size", "2048")
    capsysbinary.readouterr()
    parts = {}
    for output, flags in (("plain", ["--no-combiner"]), ("combined", [])):
        assert run_cli("job", "run", "wordcount", "--input", "tok", "--output", output,
                       "--reducers", "3", "--executor", executor, "--workers", "2",
                       *flags) == 0
        report = json.loads(capsysbinary.readouterr().out)
        assert report["phase"] == "done" and report["map_tasks"] > 1
        parts[output] = []
        for part in report["parts"]:
            assert run_cli("dfs", "cat", part) == 0
            parts[output].append(capsysbinary.readouterr().out)
    assert parts["plain"] == parts["combined"]
    counts = dict(line.split(b"\t") for part in parts["plain"] for line in part.splitlines())
    assert counts == {k: str(v).encode() for k, v in oracles.wordcount(data).items()}


def test_unknown_job_name_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("job", "run", "sortbench", "--input", "x", "--output", "y")
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_fail_flag_increases_attempts(tmp_path, capsys):
    src = tmp_path / "tok"
    src.write_bytes(b"alpha beta gamma delta\n" * 700)  # ~16 KB, 32 chunks
    run_cli("dfs", "put", str(src), "tok", "--chunk-size", "512")
    capsys.readouterr()
    assert run_cli("job", "run", "wordcount", "--input", "tok", "--output", "o1",
                   "--executor", "serial") == 0
    clean = json.loads(capsys.readouterr().out)
    assert clean["map_attempts"] == clean["map_tasks"]

    assert run_cli("job", "run", "wordcount", "--input", "tok", "--output", "o2",
                   "--executor", "serial", "--fail", "1:5") == 0
    faulted = json.loads(capsys.readouterr().out)
    assert faulted["phase"] == "done"
    assert faulted["map_attempts"] > faulted["map_tasks"]

    # node 1 stays dead on this store; a later job runs on the others
    assert run_cli("job", "run", "wordcount", "--input", "tok", "--output", "o3",
                   "--executor", "serial") == 0
    later = json.loads(capsys.readouterr().out)
    assert later["phase"] == "done"

    # identical output bytes despite the injected death
    for p1, p2, p3 in zip(clean["parts"], faulted["parts"], later["parts"]):
        run_cli("dfs", "cat", p1)
        b1 = capsys.readouterr().out
        run_cli("dfs", "cat", p2)
        assert b1 == capsys.readouterr().out
        run_cli("dfs", "cat", p3)
        assert b1 == capsys.readouterr().out


def test_bad_fail_spec_exits_2(tmp_path, capsys):
    src = tmp_path / "t"
    src.write_bytes(b"a\n")
    run_cli("dfs", "put", str(src), "t")
    code = run_cli("job", "run", "wordcount", "--input", "t", "--output", "o",
                   "--fail", "one:soon")
    assert code == 2


def test_job_whose_input_is_one_of_its_own_parts_exits_2(tmp_path, capsysbinary):
    src = tmp_path / "tok"
    src.write_bytes(b"alpha beta gamma delta\n" * 100)
    run_cli("dfs", "put", str(src), "o/part-r-00000", "--chunk-size", "512")
    capsysbinary.readouterr()
    assert run_cli("job", "run", "wordcount", "--input", "o/part-r-00000", "--output", "o",
                   "--reducers", "2", "--executor", "serial") == 2
    assert b"own output" in capsysbinary.readouterr().err
    assert run_cli("dfs", "cat", "o/part-r-00000") == 0
    assert capsysbinary.readouterr().out == src.read_bytes()


def test_store_root_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MINIMAPRED_STORE", str(tmp_path / "envstore"))
    src = tmp_path / "f"
    src.write_bytes(b"x")
    run_cli("dfs", "put", str(src), "f", "--store-root", str(tmp_path / "ignored"))
    assert (tmp_path / "envstore" / "cluster.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_conflicting_flags_on_existing_store_exit_2(tmp_path, capsys):
    src = tmp_path / "f"
    src.write_bytes(b"x")
    run_cli("dfs", "put", str(src), "f", "--chunk-size", "64")
    assert run_cli("dfs", "put", str(src), "g", "--chunk-size", "128") == 2
    assert "conflicts" in capsys.readouterr().err
    assert run_cli("dfs", "ls") == 0  # omitted flags use the stored config
    assert [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()
            if not line.startswith(" ")] == ["f"]


@pytest.mark.parametrize("flag", ["--nodes 3", "--chunk-size 4MiB", "--replication 1",
                                  "--seed 7"])
@pytest.mark.parametrize("argv", [
    ["dfs", "get", "f"],
    ["dfs", "cat", "f"],
    ["dfs", "ls"],
    ["job", "run", "wordcount", "--input", "f", "--output", "o"],
], ids=["get", "cat", "ls", "job-run"])
def test_store_shape_flags_off_put_are_usage_errors(capsys, argv, flag):
    # only dfs put creates a store, so only it takes the store's shape
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, *flag.split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", '{"num_nodes": 4, "bogus": 1}', '{"chunk_size": 1.5}',
                                  '{"chunk_size": true}'],
                         ids=["empty", "unknown-key", "float-field", "bool-field"])
def test_unreadable_cluster_config_exits_2(tmp_path, capsys, text):
    store = tmp_path / "store"
    store.mkdir()
    (store / "cluster.json").write_text(text)
    assert run_cli("dfs", "ls", "--store-root", str(store)) == 2
    err = capsys.readouterr().err
    assert "error: unreadable cluster config" in err and "cluster.json" in err


def _catalog_entry(size=8, **chunk1):
    """An 8-byte file in two 4-byte chunks, with ``chunk1`` changing the second."""
    fid = file_id_for("in")
    chunks = [{"file_id": fid, "index": 0, "offset": 0, "length": 4, "replicas": [0, 1]},
              {"file_id": fid, "index": 1, "offset": 4, "length": 4, "replicas": [1, 2],
               **chunk1}]
    return json.dumps({"path": "in", "file_id": fid, "size": size, "chunks": chunks})


def test_unchanged_catalog_entry_describes_a_readable_file(tmp_path, capsysbinary):
    """The control for the garbled cases below: ``_catalog_entry()`` as written
    passes every check, so each of them fails on the one field it changes."""
    src = tmp_path / "f"
    src.write_bytes(b"a b\n")
    assert run_cli("dfs", "put", str(src), "in") == 0
    root = tmp_path / "minimapred_store"
    store = DiskStore(str(root), 4)
    for node, index, data in [(0, 0, b"a b\n"), (1, 0, b"a b\n"), (1, 1, b"c d\n"),
                              (2, 1, b"c d\n")]:
        store.write_chunk(node, file_id_for("in"), index, data)
    (root / "meta" / f"{file_id_for('in')}.json").write_text(_catalog_entry())
    capsysbinary.readouterr()
    assert run_cli("dfs", "ls") == 0
    assert b"in" in capsysbinary.readouterr().out
    assert run_cli("dfs", "get", "in") == 0
    assert capsysbinary.readouterr().out == b"a b\nc d\n"
    assert run_cli("job", "run", "wordcount", "--input", "in", "--output", "out",
                   "--reducers", "1") == 0
    capsysbinary.readouterr()
    assert run_cli("dfs", "cat", "out/part-r-00000") == 0
    assert capsysbinary.readouterr().out == b"a\t1\nb\t1\nc\t1\nd\t1\n"


@pytest.mark.parametrize("text", [
    '{"path": "in", "file_id"', "{}",
    '{"path": "in", "file_id": "x", "size": "4", "chunks": []}',
    _catalog_entry(size=-5), _catalog_entry(size=20), _catalog_entry(index=2),
    _catalog_entry(offset=2), _catalog_entry(length=2), _catalog_entry(size=4, length=0),
    _catalog_entry(replicas=[]), _catalog_entry(replicas=[1, 1]),
    _catalog_entry(replicas=[9]),
    json.dumps({**json.loads(_catalog_entry()), "file_id": "x"}),
], ids=["truncated", "empty-object", "wrong-type", "negative-size", "size-past-chunks",
        "wrong-index", "wrong-offset", "short-chunk", "empty-chunk", "no-replicas",
        "repeated-replica", "replica-out-of-range", "wrong-file-id"])
@pytest.mark.parametrize("argv", [
    ["dfs", "ls"],
    ["dfs", "get", "in"],
    ["job", "run", "wordcount", "--input", "in", "--output", "out"],
], ids=["ls", "get", "job-run"])
def test_garbled_catalog_entry_exits_2(tmp_path, capsys, argv, text):
    src = tmp_path / "f"
    src.write_bytes(b"a b\n")
    assert run_cli("dfs", "put", str(src), "in") == 0
    entry = tmp_path / "minimapred_store" / "meta" / f"{file_id_for('in')}.json"
    entry.write_text(text)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "error: unreadable catalog entry" in err and entry.name in err
    assert "Traceback" not in err


def test_bench_run_minimal_matrix(tmp_path, capsys):
    code = run_cli(
        "bench", "run", "--sizes", "4KiB", "--workers", "1,2", "--reps", "1",
        "--chunk-size", "1KiB", "--executor", "serial",
        "--output", str(tmp_path / "bench"),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    rows_csv = tmp_path / "bench" / "rows.csv"
    plot_csv = tmp_path / "bench" / "plot.csv"
    lines = rows_csv.read_text().splitlines()
    assert lines[0] == ("job,workers,size_bytes,repetition,elapsed_seconds,"
                        "map_tasks,reduce_tasks,seed,failed")
    assert len(lines) == 3  # header + 2 cells
    assert plot_csv.read_text().splitlines()[0] == \
        "job,workers,size_bytes,elapsed_seconds"


def test_bench_report_reads_csv(tmp_path, capsys):
    run_cli("bench", "run", "--sizes", "4KiB", "--workers", "1,2", "--reps", "1",
            "--chunk-size", "1KiB", "--executor", "serial",
            "--output", str(tmp_path / "b"))
    capsys.readouterr()
    assert run_cli("bench", "report", "--csv", str(tmp_path / "b" / "rows.csv")) == 0
    out = capsys.readouterr().out
    assert "speedup" in out and "workers" in out


def test_bench_rerun_same_seed_identical_nontiming_columns(tmp_path, capsys):
    for name in ("x", "y"):
        run_cli("bench", "run", "--sizes", "4KiB", "--workers", "1", "--reps", "1",
                "--chunk-size", "1KiB", "--executor", "serial", "--seed", "9",
                "--output", str(tmp_path / name))

    def nontiming(path):
        rows = []
        for line in (tmp_path / path / "rows.csv").read_text().splitlines()[1:]:
            cols = line.split(",")
            rows.append(cols[:4] + cols[5:])
        return rows

    assert nontiming("x") == nontiming("y")


def test_bench_report_missing_baseline_exits_3(tmp_path, capsys):
    run_cli("bench", "run", "--sizes", "4KiB", "--workers", "2", "--reps", "1",
            "--chunk-size", "1KiB", "--executor", "serial",
            "--output", str(tmp_path / "b"))
    capsys.readouterr()
    assert run_cli("bench", "report", "--csv", str(tmp_path / "b" / "rows.csv")) == 3


def test_job_failure_exits_3(tmp_path, capsys):
    src = tmp_path / "t"
    src.write_bytes(b"a b c\n" * 40)
    run_cli("dfs", "put", str(src), "t", "--chunk-size", "64", "--replication", "1")
    capsys.readouterr()
    # kill both worker nodes holding the only replicas -> job cannot finish
    code = run_cli("job", "run", "wordcount", "--input", "t", "--output", "o",
                   "--executor", "serial",
                   "--fail", "0:0", "--fail", "1:0", "--fail", "2:0", "--fail", "3:0")
    assert code == 3
    out, err = capsys.readouterr()
    assert "error:" in err
    assert json.loads(out)["phase"] == "failed"


def test_job_id_that_escapes_runs_dir_exits_2_and_keeps_the_store(tmp_path, capsys):
    src = tmp_path / "tok"
    src.write_bytes(b"a b a\nc a b\n" * 50)
    run_cli("dfs", "put", str(src), "tok", "--chunk-size", "64")
    code = run_cli("job", "run", "wordcount", "--input", "tok", "--output", "out",
                   "--executor", "serial", "--job-id", "../..")
    assert code == 2
    assert "job_id" in capsys.readouterr().err
    assert run_cli("dfs", "cat", "tok") == 0
    assert capsys.readouterr().out == src.read_text()


@pytest.mark.parametrize("flags, message", [
    ("--reps 0", "repetitions"),
    ("--sizes 0", "sizes"),
    ("--workers 0,1", "worker_counts"),
    ("--chunk-size 0", "chunk_size"),
    ("--reducers 0", "num_reducers"),
    ("--replication 9", "replication"),
])
def test_bench_matrix_flag_errors_exit_2(tmp_path, capsys, flags, message):
    assert run_cli("bench", "run", *flags.split(), "--executor", "serial",
                   "--output", str(tmp_path / "b")) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not (tmp_path / "b").exists()


# Values no flag can spell (a str or bool count, an empty list) but a library
# caller can pass; they reach BenchMatrix beside the flags through _given. The
# ids keep the names these cases had as JSON matrix configs.
@pytest.mark.parametrize("settings, message", [
    ({"repetitions": "3"}, "integers, got '3'"),
    ({"sizes": ("12XB",)}, "integers, got '12XB'"),
    ({"sizes": (True,)}, "integers, got True"),
    ({"worker_counts": ("2",)}, "integers, got '2'"),
    ({"worker_counts": ()}, "worker_counts"),
], ids=[
    '{"repetitions": "3"}-integers, got \'3\'',
    '{"sizes": ["12XB"]}-bad value',
    '{"sizes": [true]}-integers, got True',
    '{"workers": ["2"]}-integers, got \'2\'',
    '{"workers": []}-worker_counts',
])
def test_bench_matrix_config_errors_exit_2(tmp_path, capsys, monkeypatch, settings, message):
    given = cli._given
    monkeypatch.setattr(cli, "_given", lambda **flags: {**given(**flags), **settings})
    assert run_cli("bench", "run", "--executor", "serial",
                   "--output", str(tmp_path / "b")) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not (tmp_path / "b").exists()


def test_bench_bad_size_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "run", "--sizes", "12XB", "--output", str(tmp_path / "b"))
    assert exc.value.code == 2
    assert "--sizes" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bench", "run", "--sizes", "infKB"],
    ["dfs", "put", "f", "x", "--chunk-size", "1e400KB"],
], ids=["bench-sizes", "dfs-chunk-size"])
def test_non_finite_size_flag_is_a_usage_error(tmp_path, capsys, argv):
    (tmp_path / "f").write_bytes(b"x")
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_bench_sizes_with_full_sizes_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench, "run_matrix", lambda *a, **kw: pytest.fail("matrix ran"))
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "run", "--sizes", "1KB", "--full-sizes",
                "--output", str(tmp_path / "b"))
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_bench_flags_and_config_left_out_keep_matrix_defaults(tmp_path, monkeypatch):
    seen = []

    def fake_run_matrix(matrix, **kwargs):
        seen.append(matrix)
        raise ReportError("not run")

    monkeypatch.setattr(bench, "run_matrix", fake_run_matrix)
    assert run_cli("bench", "run", "--sizes", "4KiB", "--workers", "1,3",
                   "--output", str(tmp_path / "a")) == 3
    assert seen == [bench.BenchMatrix(sizes=(4096,), worker_counts=(1, 3))]


def test_local_path_that_is_a_directory_exits_2(tmp_path, capsys):
    src = tmp_path / "f"
    src.write_bytes(b"x")
    # an unreadable local path creates no store
    for local, root in ((tmp_path / "missing", "fresh-a"), (tmp_path, "fresh-b")):
        assert run_cli("dfs", "put", str(local), "d", "--store-root", str(tmp_path / root)) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / root).exists()
    assert run_cli("dfs", "put", str(src), "f") == 0
    assert run_cli("dfs", "get", "f", "--output", str(tmp_path)) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("job,workers\nwordcount,1\n", "no 'size_bytes' column"),
    (",".join(bench.CSV_COLUMNS) + "\nwordcount,one,4096,0,1.0,4,2,42,false\n", "line 2"),
    (",".join(bench.CSV_COLUMNS) + "\nwordcount,1,4096\n", "line 2"),
    (",".join(bench.CSV_COLUMNS) + "\nwordcount,1,4096,0,1.0,4,2,42,yes\n", "line 2"),
    (",".join(bench.CSV_COLUMNS) + "\nwordcount,1,4096,0,1.0,4,2,42,false\n"
     "wordcount,2,4096,0,0.0,4,2,42,false\n", "line 3"),
    (",".join(bench.CSV_COLUMNS) + "\nwordcount,1,4096,0,nan,4,2,42,false\n", "line 2"),
    (",".join(bench.CSV_COLUMNS) + "\nwordcount,1,0,0,1.0,4,2,42,false\n", "line 2"),
], ids=["missing-column", "bad-int", "short-row", "bad-flag", "zero-seconds", "nan-seconds",
        "zero-size"])
def test_bench_report_malformed_csv_exits_2(tmp_path, capsys, text, message):
    rows = tmp_path / "rows.csv"
    rows.write_text(text)
    assert run_cli("bench", "report", "--csv", str(rows)) == 2
    err = capsys.readouterr().err
    assert "error:" in err and str(rows) in err and message in err


@pytest.mark.parametrize("tolerance", ["nan", "-1"])
def test_bench_report_bad_tolerance_exits_2(tmp_path, capsys, tolerance):
    rows = tmp_path / "rows.csv"
    rows.write_text(",".join(bench.CSV_COLUMNS) + "\nwordcount,1,4096,0,5.0,4,2,42,false\n"
                    "wordcount,2,4096,0,1.0,4,2,42,false\n")
    assert run_cli("bench", "report", "--csv", str(rows), f"--tolerance={tolerance}") == 2
    assert "error: tolerance must be finite and >= 0" in capsys.readouterr().err
    assert run_cli("bench", "report", "--csv", str(rows), "--tolerance=0.5") == 0
    assert "DEVIATES" in capsys.readouterr().out
