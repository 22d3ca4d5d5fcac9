"""Command-line entry point.

Exit codes: 0 success, 2 usage/config errors, 3 job or report failure.
Success output on stdout is machine-parseable (JSON report, CSV, or raw
bytes); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import uuid

from . import bench
from .dfs import Cluster, ClusterConfig
from .errors import InvalidConfig, JobFailed, MiniMapRedError, ReportError
from .fault import FailurePlan
from .jobtypes import JobSpec, RunOptions
from .master import submit_job

DEFAULT_STORE = "./minimapred_store"

_FAILURE_ERRORS = (JobFailed, ReportError)


def _add_cluster_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, default=None, help="default 4")
    p.add_argument("--chunk-size", type=bench.parse_size, default=None,
                   metavar="BYTES", help="chunk size, e.g. 4MiB (default 16MiB)")
    p.add_argument("--replication", type=int, default=None, help="default 2")
    p.add_argument("--seed", type=int, default=None, help="default 42")
    p.add_argument("--store-root", default=DEFAULT_STORE,
                   help="store directory (MINIMAPRED_STORE overrides)")


def _store_root(args) -> str:
    return os.environ.get("MINIMAPRED_STORE") or args.store_root


def _given(**flags) -> dict:
    """The flags given on the command line; a flag left out is None."""
    return {k: v for k, v in flags.items() if v is not None}


def _open_cluster(args) -> Cluster:
    """Open the store, creating it with flag/default config if new; an
    existing store keeps its persisted config and only explicitly
    contradicting flags are an error."""
    root = _store_root(args)
    explicit = _given(num_nodes=args.nodes, chunk_size=args.chunk_size,
                      replication=args.replication, seed=args.seed)
    if os.path.exists(os.path.join(root, "cluster.json")):
        cluster = Cluster.open_disk(root)
        stored = cluster.config.to_dict()
        conflicts = {k: v for k, v in explicit.items() if stored[k] != v}
        if conflicts:
            raise InvalidConfig(
                f"store at {root!r} uses {stored}; conflicting flags {conflicts}"
            )
        return cluster
    return Cluster.open_disk(root, ClusterConfig(**explicit))


def _size_list(text: str) -> tuple[int, ...]:
    return tuple(bench.parse_size(s) for s in text.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="minimapred")
    sub = parser.add_subparsers(dest="command", required=True)

    dfs = sub.add_parser("dfs", help="store, list and fetch files")
    dfs_sub = dfs.add_subparsers(dest="dfs_command", required=True)

    p = dfs_sub.add_parser("put", help="store a local file")
    _add_cluster_flags(p)
    p.add_argument("local_file")
    p.add_argument("dfs_path")

    p = dfs_sub.add_parser("get", help="fetch a file")
    _add_cluster_flags(p)
    p.add_argument("dfs_path")
    p.add_argument("--output", help="local destination (default: stdout)")

    p = dfs_sub.add_parser("cat", help="print a file to stdout")
    _add_cluster_flags(p)
    p.add_argument("dfs_path")

    p = dfs_sub.add_parser("ls", help="list stored files with chunk layout")
    _add_cluster_flags(p)
    p.add_argument("prefix", nargs="?", default="")

    p = sub.add_parser("job", help="run a MapReduce job")
    job_sub = p.add_subparsers(dest="job_command", required=True)
    p = job_sub.add_parser("run")
    _add_cluster_flags(p)
    p.add_argument("job_name", choices=["wordcount", "uservisits"])
    p.add_argument("--input", required=True, help="DFS input path")
    p.add_argument("--output", required=True, help="DFS output directory")
    p.add_argument("--reducers", type=int, default=2)
    p.add_argument("--workers", type=int, default=None,
                   help="worker count (default: one per node)")
    p.add_argument("--executor", choices=["serial", "threads", "processes"],
                   default="threads")
    p.add_argument("--fail", action="append", default=[], metavar="SPEC",
                   help="kill a node: <node>:<tick> or <node>:after:<task-id>"
                        " (repeatable)")
    p.add_argument("--no-combiner", action="store_true",
                   help="disable the job's default combiner")
    p.add_argument("--combiner", default=None,
                   help="explicit combiner id (e.g. wordcount.combine)")
    p.add_argument("--job-id", default=None)

    p = sub.add_parser("bench", help="run and report scaling benchmarks")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    p = bench_sub.add_parser("run")
    # flags left out keep BenchMatrix's defaults
    p.add_argument("--job", choices=["wordcount", "uservisits"])
    p.add_argument("--sizes", type=_size_list,
                   help="comma list, e.g. 64MiB,256MiB (default desk-scale)")
    p.add_argument("--workers", type=_int_list, help="comma list of worker counts")
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--chunk-size", type=bench.parse_size)
    p.add_argument("--replication", type=int)
    p.add_argument("--reducers", type=int)
    p.add_argument("--executor", choices=["serial", "threads", "processes"])
    p.add_argument("--matrix", help="JSON matrix config file (overrides flags)")
    p.add_argument("--full-sizes", action="store_true",
                   help="use the full-scale 350MB/1GB/2GB sizes")
    p.add_argument("--output", default="./bench-out", help="CSV output directory")

    p = bench_sub.add_parser("report")
    p.add_argument("--csv", required=True, help="rows CSV from bench run")
    p.add_argument("--tolerance", type=float, default=0.5)

    return parser


# ---------------------------------------------------------------------------


def cmd_dfs(args) -> int:
    cluster = _open_cluster(args)
    if args.dfs_command == "put":
        with open(args.local_file, "rb") as f:
            meta = cluster.put_file(args.dfs_path, f.read())
        print(f"stored {meta.path} ({meta.size} bytes, {len(meta.chunks)} chunks)")
    elif args.dfs_command in ("get", "cat"):
        data = cluster.get_file(args.dfs_path)
        out = getattr(args, "output", None)
        if args.dfs_command == "get" and out:
            with open(out, "wb") as f:
                f.write(data)
        else:
            sys.stdout.buffer.write(data)
    elif args.dfs_command == "ls":
        for meta in cluster.list_files(args.prefix):
            print(f"{meta.path}\tsize={meta.size}\tchunks={len(meta.chunks)}")
            for c in meta.chunks:
                replicas = ",".join(str(n) for n in c.replicas)
                print(f"  chunk {c.index}\toffset={c.offset}\tlen={c.length}"
                      f"\treplicas={replicas}")
    return 0


def cmd_job(args) -> int:
    cluster = _open_cluster(args)
    plan = FailurePlan.parse(args.fail) if args.fail else None
    combiner = args.combiner
    if combiner is None and not args.no_combiner:
        combiner = bench.default_combiner(args.job_name)
    spec = JobSpec(
        job_id=args.job_id or f"{args.job_name}-{uuid.uuid4().hex[:8]}",
        input_path=args.input,
        output_path=args.output,
        mapper_id=f"{args.job_name}.map",
        reducer_id=f"{args.job_name}.reduce",
        combiner_id=combiner,
        num_reducers=args.reducers,
    )
    options = RunOptions(workers=args.workers, executor=args.executor)
    report = submit_job(cluster, spec, options, plan)
    print(report.to_json(indent=2))
    return 0


def cmd_bench(args) -> int:
    if args.bench_command == "report":
        rows = bench.read_rows_csv(args.csv)
        print(bench.speedup_report(rows, tolerance=args.tolerance).render())
        return 0

    if args.matrix:
        matrix = bench.BenchMatrix.from_config(args.matrix)
    else:
        matrix = bench.BenchMatrix(**_given(
            job_id=args.job, sizes=bench.FULL_SIZES if args.full_sizes else args.sizes,
            worker_counts=args.workers, repetitions=args.reps, seed=args.seed,
            chunk_size=args.chunk_size, replication=args.replication,
            num_reducers=args.reducers, executor=args.executor,
        ))
    os.makedirs(args.output, exist_ok=True)
    rows_csv = os.path.join(args.output, "rows.csv")
    plot_csv = os.path.join(args.output, "plot.csv")

    def progress(row):
        state = "FAILED" if row.failed else f"{row.elapsed_seconds:.2f}s"
        print(f"  {row.job_id} size={row.size_bytes} workers={row.workers} "
              f"rep={row.repetition}: {state}", file=sys.stderr)

    rows = bench.run_matrix(matrix, csv_path=rows_csv, progress=progress)
    bench.emit_plot_data(rows, plot_csv)
    print(bench.speedup_report(rows).render())
    print(f"rows: {rows_csv}", file=sys.stderr)
    print(f"plot: {plot_csv}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "dfs":
            return cmd_dfs(args)
        if args.command == "job":
            return cmd_job(args)
        return cmd_bench(args)
    except _FAILURE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (MiniMapRedError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
