"""CLI surface: exit codes, stdout formats, flag validation."""

import json

import pytest

from minimapred import ReportError, bench
from minimapred.cli import main


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
    assert run_cli("dfs", "ls", "--chunk-size", "128") == 2
    assert run_cli("dfs", "ls") == 0  # omitted flags use the stored config


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
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("config, message", [
    ('{"sizes": ["12XB"]}', "bad value"),
    ('{"sizes": ["4KiB"],', "not JSON"),
    ('{"sizes": ["4KiB"], "reducer": 3}', "'reducer'"),
])
def test_bench_matrix_config_errors_exit_2(tmp_path, capsys, config, message):
    cfg = tmp_path / "matrix.json"
    cfg.write_text(config)
    assert run_cli("bench", "run", "--matrix", str(cfg),
                   "--output", str(tmp_path / "b")) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not (tmp_path / "b").exists()


def test_bench_bad_size_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "run", "--sizes", "12XB", "--output", str(tmp_path / "b"))
    assert exc.value.code == 2
    assert "--sizes" in capsys.readouterr().err


def test_bench_flags_and_config_left_out_keep_matrix_defaults(tmp_path, monkeypatch):
    seen = []

    def fake_run_matrix(matrix, **kwargs):
        seen.append(matrix)
        raise ReportError("not run")

    monkeypatch.setattr(bench, "run_matrix", fake_run_matrix)
    cfg = tmp_path / "matrix.json"
    cfg.write_text('{"sizes": ["4KiB"], "workers": [1, 3]}')
    assert run_cli("bench", "run", "--sizes", "4KiB", "--workers", "1,3",
                   "--output", str(tmp_path / "a")) == 3
    assert run_cli("bench", "run", "--matrix", str(cfg),
                   "--output", str(tmp_path / "b")) == 3
    assert seen == [bench.BenchMatrix(sizes=(4096,), worker_counts=(1, 3))] * 2
