"""Worker execution backends.

The master only sees (node, payload) submissions and jobtypes.TaskResult
messages, so the same scheduling loop drives three backends:

- serial: submissions run synchronously in node order when the master next
  polls. Fully deterministic ticks; the default for tests.
- threads: a thread pool. Shares the in-memory store; no real CPU speedup
  under the GIL.
- processes: a process pool for genuine parallelism. Requires a disk-backed
  store so workers and master see the same bytes; the payload's cluster
  pickles as its config and store root, and each worker reopens the files.

A pool's poll() returns the tasks finished so far and wait() blocks until
at least one is; either returns its batch in submission order. The serial
executor has no wait(): its poll() runs everything queued, so the master
never has a serial task in flight when it would wait. Which tasks
have finished depends on the interleaving, so the master treats any batch
order as legal. A pool-level failure (a worker process that died, say) is
still reported, as a TaskResult with attempt -1.

Every payload carries the Cluster itself; serial and thread workers use the
master's own object.
"""

from __future__ import annotations

from concurrent import futures

from .errors import InvalidConfig, ShuffleSourceLost
from .jobtypes import TaskResult
from .registry import resolve, resolve_split
from .tasks import run_map_task, run_reduce_task


def execute_task(payload: dict) -> TaskResult:
    """Run one map or reduce task; never raises, reports via TaskResult."""
    base = dict(
        task_id=payload["task_id"],
        attempt=payload["attempt"],
        node=payload["node"],
    )
    try:
        cluster, spec = payload["cluster"], payload["spec"]
        if payload["kind"] == "map":
            runs, skipped = run_map_task(
                cluster,
                spec.job_id,
                payload["task_id"],
                payload["attempt"],
                payload["node"],
                payload["split"],
                resolve_split(spec.mapper_id),
                resolve(spec.combiner_id) if spec.combiner_id else None,
                spec.num_reducers,
                payload["spill_pairs"],
            )
            return TaskResult(runs=runs, skipped=skipped, **base)
        run_reduce_task(
            cluster,
            payload["partition"],
            resolve(spec.reducer_id),
            payload["sources"],
            spec.output_path,
        )
        return TaskResult(**base)
    except ShuffleSourceLost as e:
        return TaskResult(shuffle_lost=e.map_task_id, error=str(e), **base)
    except Exception as e:  # noqa: BLE001 - task failures go back to the master
        return TaskResult(error=f"{type(e).__name__}: {e}", **base)


class SerialExecutor:
    """Runs submissions synchronously, in node order, at the next poll."""

    def __init__(self):
        self._queued: list[tuple[int, dict]] = []

    def submit(self, node: int, payload: dict) -> None:
        self._queued.append((node, payload))

    def poll(self) -> list[TaskResult]:
        batch = sorted(self._queued, key=lambda item: item[0])
        self._queued = []
        return [execute_task(p) for _, p in batch]

    def shutdown(self) -> None:
        pass


class _PoolExecutor:
    def __init__(self, pool):
        self._pool = pool
        self._futures = {}  # in-flight futures as keys, in submission order

    def submit(self, node: int, payload: dict) -> None:
        del node  # pinning is logical; the master already picked the node
        self._futures[self._pool.submit(execute_task, payload)] = None

    def poll(self) -> list[TaskResult]:
        return self.wait(timeout=0)

    def wait(self, timeout: float | None = None) -> list[TaskResult]:
        done = futures.wait(self._futures, timeout, futures.FIRST_COMPLETED).done
        out = []
        for fut in [f for f in self._futures if f in done]:
            del self._futures[fut]
            try:
                out.append(fut.result())
            except Exception as e:  # pool-level failure (e.g. broken process)
                out.append(TaskResult(task_id="", attempt=-1, node=-1,
                                      error=f"{type(e).__name__}: {e}"))
        return out

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


def make_executor(name: str, workers: int, store_kind: str):
    if name == "serial":
        return SerialExecutor()
    if name == "threads":
        return _PoolExecutor(futures.ThreadPoolExecutor(max_workers=workers))
    if name == "processes":
        if store_kind != "disk":
            raise InvalidConfig("process workers require a disk-backed store")
        return _PoolExecutor(futures.ProcessPoolExecutor(max_workers=workers))
    raise InvalidConfig(f"unknown executor {name!r}; use serial, threads or processes")
