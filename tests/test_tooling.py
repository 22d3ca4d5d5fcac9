"""Repository rules that no single module's tests would catch."""

import ast
import dataclasses
import os
import re
import shlex
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "minimapred")


def test_engine_imports_only_the_standard_library():
    outside = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{name}:{node.lineno} {m}" for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_public_api_is_pinned():
    import minimapred

    assert sorted(minimapred.__all__) == sorted([
        "AlreadyExists", "Chunk", "ChunkUnavailable", "Cluster", "ClusterConfig",
        "FailureEvent", "FailurePlan", "FileMeta", "InputSplit", "InvalidConfig",
        "InvalidPlan", "JobFailed", "JobReport", "JobSpec", "JobState", "Master",
        "MiniMapRedError", "NotFound", "Phase", "Record", "recover", "register",
        "registered_ids", "ReportError", "resolve", "RunOptions", "RunResult", "run_job",
        "ShuffleSourceLost", "SkipRecord", "submit_job", "TaskDescriptor", "TaskState",
        "UnknownFunction", "UnknownInput",
    ])
    assert [n for n in minimapred.__all__ if not hasattr(minimapred, n)] == []


def test_master_sets_every_job_report_field():
    # a field left to its default reads 0 in every report, and a test that
    # asserts it is 0 then checks nothing
    from minimapred import JobReport

    with open(os.path.join(SRC, "master.py")) as f:
        tree = ast.parse(f.read())
    [call] = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
              and isinstance(n.func, ast.Name) and n.func.id == "JobReport"]
    assert {k.arg for k in call.keywords} == {f.name for f in dataclasses.fields(JobReport)}


def test_every_dispatch_payload_key_is_read():
    # a key that no worker reads is a copy of a fact pickled for nothing;
    # perfbench's tracer reads some keys inside worker processes
    with open(os.path.join(SRC, "master.py")) as f:
        tree = ast.parse(f.read())
    [dispatch] = [n for n in ast.walk(tree)
                  if isinstance(n, ast.FunctionDef) and n.name == "_dispatch"]
    keys = set()
    for node in ast.walk(dispatch):
        if isinstance(node, ast.Dict):
            keys |= {k.value for k in node.keys}
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "update"):
            keys |= {k.arg for k in node.keywords}
    with open(os.path.join(SRC, "executors.py")) as f:
        read = {n.slice.value for n in ast.walk(ast.parse(f.read()))
                if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
                and n.value.id == "payload" and isinstance(n.slice, ast.Constant)}
    with open(os.path.join(SRC, "..", "..", "perfbench", "tracer.py")) as f:
        tracer = f.read()
    assert {"spec", "split", "sources"} <= keys
    assert sorted(k for k in keys if k not in read and f'"{k}"' not in tracer) == []


def test_master_core_does_no_io():
    # the core's rules are driven without a store or a pool only while no
    # method of it reaches for one; the driver, Master, does the I/O
    with open(os.path.join(SRC, "master.py")) as f:
        tree = ast.parse(f.read())
    [core] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "MasterCore"]
    names = {n.id for n in ast.walk(core) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(core) if isinstance(n, ast.Attribute)}
    names |= {a.arg for n in ast.walk(core) if isinstance(n, ast.arguments)
              for a in n.posonlyargs + n.args + n.kwonlyargs}
    assert sorted(names & {"cluster", "store", "executor", "time", "make_executor"}) == []


def test_both_stores_define_the_same_public_names():
    # the engine and perfbench's tracer call store methods by name on
    # either class, so a name on one store alone breaks the other
    from minimapred.dfs import DiskStore, MemoryStore

    def public(cls):
        return sorted(n for n in vars(cls) if not n.startswith("_"))

    assert public(DiskStore) == public(MemoryStore)
    assert len(public(MemoryStore)) == 14


def test_both_stores_run_the_one_store_logic():
    # a public method defined on one backend alone forks the store again;
    # a backend defines only its kind, __init__ and byte primitives
    from minimapred.dfs import DiskStore, MemoryStore, _Store

    for cls in (MemoryStore, DiskStore):
        forked = [n for n in vars(cls) if not n.startswith("_") and n != "kind"
                  and vars(cls)[n] is not vars(_Store).get(n)]
        assert forked == [], cls.__name__
        assert isinstance(vars(cls)["kind"], str)


def test_every_built_in_mapper_has_its_split_form():
    # a built-in job left on registry.per_record runs a Python call per record
    from minimapred import jobs
    from minimapred.registry import resolve_split

    assert [job for job in jobs.JOBS
            if resolve_split(f"{job}.map") is not getattr(jobs, f"{job}_split_map")] == []


def test_readme_cli_commands_parse():
    # a reader copies these lines; each must still be a command the CLI takes
    from minimapred import cli

    with open(os.path.join(SRC, "..", "..", "README.md")) as f:
        blocks = re.findall(r"^```sh\n(.*?)^```", f.read(), re.S | re.M)
    commands = [argv for block in blocks
                for argv in (shlex.split(line, comments=True)
                             for line in block.replace("\\\n", " ").splitlines())
                if argv[:1] == ["minimapred"]]
    bad = []
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv[1:])
        except SystemExit:
            bad.append(shlex.join(argv))
    assert bad == []
    # every subcommand has an example
    assert {tuple(argv[1:3]) for argv in commands} == {
        ("dfs", "put"), ("dfs", "ls"), ("dfs", "get"), ("dfs", "cat"),
        ("job", "run"), ("bench", "run"), ("bench", "report")}


def test_readme_bench_run_defaults_match_the_matrix(tmp_path, monkeypatch):
    # the README's table tells a reader what a flag left out means
    from minimapred import ReportError, bench, cli

    with open(os.path.join(SRC, "..", "..", "README.md")) as f:
        section = f.read().split("### Benchmark matrix", 1)[1].split("\n#", 1)[0]
    table = re.findall(r"^\| `(--[\w-]+)` \| `([^`]+)`", section, re.M)
    seen = []

    def fake_run_matrix(matrix, **kwargs):
        seen.append(matrix)
        raise ReportError("not run")

    monkeypatch.setattr(bench, "run_matrix", fake_run_matrix)
    for flag, default in table:
        assert cli.main(["bench", "run", flag, default, "--output", str(tmp_path)]) == 3
    assert seen == [bench.BenchMatrix()] * len(table)

    parser = cli.build_parser()
    [bench_cmd] = [a for a in parser._actions if a.dest == "command"]
    [run_cmd] = [a for a in bench_cmd.choices["bench"]._actions if a.dest == "bench_command"]
    flags = {opt for a in run_cmd.choices["run"]._actions for opt in a.option_strings}
    assert sorted(flag for flag, _ in table) == sorted(
        flags - {"--output", "--full-sizes", "-h", "--help"})
