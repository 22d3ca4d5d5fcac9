"""Repository rules that no single module's tests would catch."""

import ast
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
