"""One benchmark run: generate a workload's input from the seed, then set
up, run and check jobs until the time budget is spent.

Every job gets a fresh cluster (open plus DFS ingest of the input: the
``setup_s`` sample), runs through ``run_job`` (the ``job_s`` sample) and is
checked against the workload's reference before the next one starts. An
untraced run reports end-to-end metrics. A traced run alternates an
untraced job with a traced one and reports per-layer medians over the
traced jobs, with the traced-minus-untraced gap as tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

from metrics import job_metrics
from tracer import Installation, Tracer, register_timed_functions
from workloads import (
    CHUNK_SIZE, CLUSTER_SEED, MIB, NUM_NODES, NUM_REDUCERS, REPLICATION, Workload,
    check_job, make_input,
)

from minimapred import (
    Cluster, ClusterConfig, FailureEvent, FailurePlan, JobFailed, JobSpec,
    RunOptions, run_job,
)

perf_counter = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))

INPUT_PATH = "input/data"
OUTPUT_PATH = "output"
EXTRA_SETUPS = 8  # set-up-only samples taken before the first job
LAYER_SUM_TOLERANCE = 0.10
# Seconds the calibration kernel takes at the reference host speed; the
# normalized metrics are in seconds at that speed.
CAL_REF_S = 0.25


class Calibration:
    """Host-speed probe: ``calibrate.py`` in a separate interpreter, asked
    to run its kernel for ``PROBE_S`` (0.3 s) after each job.

    On a shared host the speed of a core drifts, at times by 2x within a
    minute, and every job of a run slows with it. ``seconds_per_kernel``
    averages the probes of the whole run, and the normalized metrics scale
    the run's medians by ``CAL_REF_S`` / that average. The kernel allocates
    and sorts as much as a job does per byte, so it slows with the job when
    other tenants contend for caches and memory; a kernel that fits in
    cache tracked the jobs worse. The probe process never imports the
    engine, so a change to the engine moves the normalized time exactly as
    much as the wall time.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.pid = self._proc.pid
        self._elapsed = 0.0
        self._kernels = 0

    def probe(self) -> None:
        self._proc.stdin.write("probe\n")
        self._proc.stdin.flush()
        answer = self._proc.stdout.readline().split()
        if len(answer) != 2:
            raise RuntimeError(f"calibration probe exited ({self._proc.poll()})")
        self._elapsed += float(answer[0])
        self._kernels += int(answer[1])

    def seconds_per_kernel(self) -> float:
        return self._elapsed / self._kernels

    def close(self) -> None:
        try:
            self._proc.stdin.write("quit\n")
            self._proc.stdin.close()
        except OSError:
            pass  # it has already exited
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class PeakRss:
    """Samples the resident set of this process and of its child processes
    (the ``processes`` executor's workers, but not the ``exclude`` pids)
    while a job runs; ``stop()`` returns the largest single-process RSS
    seen, in MiB."""

    PAGE = os.sysconf("SC_PAGE_SIZE")

    def __init__(self, exclude: set[str], interval: float = 0.005):
        self.exclude = exclude
        self.interval = interval
        self._stop = threading.Event()
        self._peak = 0
        self._thread = threading.Thread(target=self._run, daemon=True)

    @classmethod
    def _rss(cls, pid) -> int:
        try:
            with open(f"/proc/{pid}/statm") as f:
                return int(f.read().split()[1]) * cls.PAGE
        except (OSError, IndexError, ValueError):
            return 0  # the process ended between listing and reading

    @staticmethod
    def _children() -> list[str]:
        pids = []
        for tid in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{tid}/children") as f:
                    pids.extend(f.read().split())
            except OSError:
                pass
        return pids

    def _sample(self) -> None:
        rss = [self._rss("self")] + [
            self._rss(p) for p in self._children() if p not in self.exclude]
        self._peak = max(self._peak, *rss)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def start(self) -> "PeakRss":
        self._sample()
        self._thread.start()
        return self

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        self._sample()
        return self._peak / MIB


def host_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Runner:
    def __init__(self, w: Workload, seed: int, work_dir: str, size: int | None = None):
        self.w = w
        self.work_dir = work_dir
        self.inp = make_input(w, seed, size)
        self.input_bytes = len(self.inp.data)
        self.config = ClusterConfig(NUM_NODES, CHUNK_SIZE, REPLICATION, CLUSTER_SEED)
        spill = {} if w.spill_pairs is None else {"spill_pairs": w.spill_pairs}
        self.options = RunOptions(executor=w.executor, workers=w.workers, **spill)
        self.plan = None
        if w.fail_node_after is not None:
            node, task = w.fail_node_after
            self.plan = FailurePlan((FailureEvent(node, after_task=task),))
        self.fn_ids = {"map": f"{w.job}.map", "reduce": f"{w.job}.reduce",
                       "combine": f"{w.job}.combine" if w.combiner else None}
        self._n = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # -- cluster lifetime ---------------------------------------------------

    def setup(self) -> Cluster:
        self._n += 1
        if self.w.store == "disk":
            cluster = Cluster.open_disk(
                os.path.join(self.work_dir, f"cluster{self._n}"), self.config)
        else:
            cluster = Cluster(self.config)
        cluster.put_file(INPUT_PATH, self.inp.data)
        return cluster

    @staticmethod
    def teardown(cluster: Cluster) -> None:
        root = getattr(cluster.store, "root", None)
        if root is not None:
            shutil.rmtree(root)

    def timed_setup(self) -> tuple[Cluster, float]:
        t0 = perf_counter()
        cluster = self.setup()
        return cluster, perf_counter() - t0

    def spec(self, fn_ids: dict[str, str | None]) -> JobSpec:
        return JobSpec(
            job_id=f"{self.w.name}-{self._n}",
            input_path=INPUT_PATH,
            output_path=OUTPUT_PATH,
            mapper_id=fn_ids["map"],
            reducer_id=fn_ids["reduce"],
            combiner_id=fn_ids["combine"],
            num_reducers=NUM_REDUCERS,
        )

    def _check(self, cluster, result) -> None:
        self.attempted += 1
        problems = check_job(cluster, result.report, self.inp, result.events, self.w)
        if problems:
            self.failed += 1
            self.problems.append(f"job {result.report.job_id}: " + "; ".join(problems))

    def _job_failed(self, job_id: str, err: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"job {job_id}: {type(err).__name__}: {err}")
        if not isinstance(err, JobFailed):
            traceback.print_exception(err, file=sys.stderr)

    # -- one job ------------------------------------------------------------

    def untraced_job(self, rss: PeakRss | None) -> tuple[float, float, float] | None:
        """(setup_s, job_s, peak_rss_mb) of one checked job, the peak
        sampled by ``rss`` (0 without one); None if the job failed."""
        cluster, setup_s = self.timed_setup()
        spec = self.spec(self.fn_ids)
        try:
            if rss is not None:
                rss.start()
            t0 = perf_counter()
            try:
                result = run_job(cluster, spec, self.options, self.plan)
            finally:
                job_s = perf_counter() - t0
                peak = rss.stop() if rss is not None else 0.0
            self._check(cluster, result)
        except Exception as e:  # noqa: BLE001 - a failed job is counted, not fatal
            self._job_failed(spec.job_id, e)
            return None
        finally:
            self.teardown(cluster)
        return setup_s, job_s, peak

    def traced_job(self, tracer: Tracer, traced_ids) -> tuple[dict, list[dict]] | None:
        """Per-layer metrics and spans of one checked, traced job."""
        inst = Installation(tracer)
        cluster = None
        job_id = f"{self.w.name}-{self._n + 1}"
        try:
            tracer.trace_id = job_id + "/setup"
            cluster, _ = tracer.call("setup", self.setup)
            setup_spans, _ = tracer.collect()
            spec = self.spec(traced_ids)
            tracer.trace_id = spec.job_id
            result, job_span = tracer.call("job", run_job, cluster, spec, self.options,
                                           self.plan)
            inst.remove()
            spans, counters = tracer.collect()
            m = job_metrics(spans, setup_spans, counters, inst.master_info, result,
                            job_span, self.input_bytes)
            self._check(cluster, result)
        except Exception as e:  # noqa: BLE001 - a failed job is counted, not fatal
            self._job_failed(job_id, e)
            return None
        finally:
            inst.remove()
            if cluster is not None:
                self.teardown(cluster)
        return m, setup_spans + spans


def run(w: Workload, seed: int, seconds: float, trace: bool, root: str,
        size: int | None = None, emit=print) -> dict:
    """Run one workload for ``seconds``; returns the result object and
    prints a human-readable report through ``emit``."""
    host = host_info()
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch)
    try:
        t_gen = perf_counter()
        runner = Runner(w, seed, work_dir, size)
        t_gen = perf_counter() - t_gen
        emit(f"perfbench {w.name} seed={seed} trace={int(trace)} "
             f"nproc={host['nproc']} python={host['python']} platform={host['platform']}")
        emit(f"  input: {runner.input_bytes} bytes ({w.job}), generated in {t_gen:.2f}s "
             f"(not timed); cluster {NUM_NODES} nodes, replication {REPLICATION}, "
             f"{CHUNK_SIZE // MIB} MiB chunks, {NUM_REDUCERS} reducers, cluster seed "
             f"{CLUSTER_SEED}; {w.executor} executor, {w.store} store")
        if w.workers is not None and host["nproc"] < w.workers:
            emit(f"  WARNING: nproc {host['nproc']} < {w.workers} workers; "
                 "the workers time-share cores")
        if trace:
            values, spans = _traced(runner, seconds, work_dir, emit)
            _write_spans(root, w.name, seed, spans)
        else:
            values = _untraced(runner, seconds, emit)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for p in runner.problems:
        emit(f"  FAILED {p}")
    share = runner.failed / runner.attempted if runner.attempted else 1.0
    emit(f"  failed_share {share:.4f} ratio ({runner.failed} of {runner.attempted} jobs "
         "failed or gave wrong parts)")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    metrics = {}
    if values:
        for m in declared:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            emit(f"  {m['name']} {values[m['name']]:.6g} {m['unit']}")
    return {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def _budget(seconds: float, durations: list[float], started: float) -> bool:
    """True while another iteration, as long as the median one so far, fits."""
    if not durations:
        return True
    return perf_counter() - started + statistics.median(durations) <= seconds


def _untraced(runner: Runner, seconds: float, emit) -> dict[str, float]:
    started = perf_counter()
    cal = Calibration()
    jobs, rss, setups = [], [], []
    try:
        cal.probe()
        for _ in range(EXTRA_SETUPS):
            cluster, setup_s = runner.timed_setup()
            runner.teardown(cluster)
            setups.append(setup_s)
        cal.probe()
        durations: list[float] = []
        while _budget(seconds, durations, started):
            t0 = perf_counter()
            sample = runner.untraced_job(PeakRss(exclude={str(cal.pid)}))
            cal.probe()
            durations.append(perf_counter() - t0)
            if sample is not None:
                setups.append(sample[0])
                jobs.append(sample[1])
                rss.append(sample[2])
    finally:
        cal.close()
    if not jobs:
        return {}
    medians = {}
    for name, label, samples, what in (
            ("job_s", "wall job_s", jobs, "jobs"),
            ("setup_s", "wall setup_s", setups, "set-ups"),
            ("peak_rss_mb", "peak_rss_mb", rss, "jobs")):
        q1, medians[name], q3 = quartiles(samples)
        emit(f"  {label} {medians[name]:.4f} (median of {len(samples)} {what}; "
             f"q1 {q1:.4f}, q3 {q3:.4f})")
    mib = runner.input_bytes / MIB
    scale = CAL_REF_S / cal.seconds_per_kernel()
    emit(f"  wall input_mb_per_s {mib / medians['job_s']:.4f}")
    emit(f"  calibration kernel {cal.seconds_per_kernel():.4f} s (mean over the run's "
         f"probes; {CAL_REF_S} s at reference speed, scale {scale:.4f})")
    return {
        "job_ref_s": medians["job_s"] * scale,
        "input_mib_per_ref_s": mib / (medians["job_s"] * scale),
        "setup_s": medians["setup_s"] * scale,
        "peak_rss_mb": medians["peak_rss_mb"],
    }


def _traced(runner: Runner, seconds: float, work_dir: str,
            emit) -> tuple[dict[str, float], list[dict]]:
    span_dir = os.path.join(work_dir, "spans")
    os.makedirs(span_dir)
    tracer = Tracer(span_dir)
    traced_ids = register_timed_functions(
        tracer, [fn for fn in runner.fn_ids.values() if fn is not None])
    traced_ids = {k: (traced_ids[v] if v else None) for k, v in runner.fn_ids.items()}
    started = perf_counter()
    cal = Calibration()
    untraced, traced, all_spans = [], [], []
    durations: list[float] = []
    try:
        while _budget(seconds, durations, started):
            t0 = perf_counter()
            cal.probe()
            sample = runner.untraced_job(None)
            if sample is not None:
                untraced.append(sample[1])
            out = runner.traced_job(tracer, traced_ids)
            durations.append(perf_counter() - t0)
            if out is not None:
                traced.append(out[0])
                all_spans.extend(out[1])
    finally:
        cal.close()
    if not traced or not untraced:
        return {}, all_spans
    names = list(traced[0])
    metrics = {n: statistics.median(m[n] for m in traced) for n in names}
    base = statistics.median(untraced)
    metrics["trace.untraced_job_s"] = base
    metrics["trace.cal_s"] = cal.seconds_per_kernel()
    metrics["trace.overhead_s"] = metrics["trace.job_s"] - base
    emit(f"  per-layer medians over {len(traced)} traced jobs "
         f"(untraced job_s median {base:.4f} s over {len(untraced)} jobs)")
    ratio = metrics["trace.layer_sum_ratio"]
    verdict = "ok" if abs(ratio - 1) <= LAYER_SUM_TOLERANCE else "OUTSIDE 10%"
    emit(f"  layer-sum check: self times sum to {ratio:.4f} x traced job_s "
         f"(plus worker overlap): {verdict}")
    emit(f"  tracing overhead: {metrics['trace.overhead_s']:.4f} s on a base of "
         f"{base:.4f} s untraced ({metrics['trace.overhead_s'] / base:.1%})")
    return metrics, all_spans


def _write_spans(root: str, name: str, seed: int, spans: list[dict]) -> None:
    out = os.path.join(root, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"spans-{name}-seed{seed}.jsonl"), "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")
