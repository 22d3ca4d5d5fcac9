"""Worker execution backends.

The master only sees (node, payload) submissions and TaskResult messages,
so the same scheduling loop drives three backends:

- serial: submissions run synchronously in node order when the master next
  polls. Fully deterministic ticks; the default for tests.
- threads: a thread pool. Shares the in-memory store; no real CPU speedup
  under the GIL.
- processes: a process pool for genuine parallelism. Requires a disk-backed
  store so workers and master see the same bytes; the payload's cluster
  pickles as its config and store root, and each worker reopens the files.

Every payload carries the Cluster itself; serial and thread workers use the
master's own object.
"""

from __future__ import annotations

import queue
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from .errors import InvalidConfig, ShuffleSourceLost
from .registry import resolve, resolve_split
from .tasks import run_map_task, run_reduce_task


@dataclass
class TaskResult:
    task_id: str
    attempt: int
    node: int
    kind: str
    ok: bool
    # map: per partition, (node, run names) in spill order, final run last
    locations: list[tuple[int, tuple[str, ...]]] | None = None
    skipped: int = 0
    part_path: str | None = None  # reduce
    shuffle_lost: str | None = None  # map task whose runs were missing
    error: str | None = None


def execute_task(payload: dict) -> TaskResult:
    """Run one map or reduce task; never raises, reports via TaskResult."""
    base = dict(
        task_id=payload["task_id"],
        attempt=payload["attempt"],
        node=payload["node"],
        kind=payload["kind"],
    )
    try:
        cluster = payload["cluster"]
        if payload["kind"] == "map":
            locations, skipped = run_map_task(
                cluster,
                payload["job_id"],
                payload["task_id"],
                payload["attempt"],
                payload["node"],
                payload["split"],
                resolve(payload["mapper_id"]),
                resolve(payload["combiner_id"]) if payload["combiner_id"] else None,
                payload["num_reducers"],
                payload["spill_pairs"],
                resolve_split(payload["mapper_id"]),
            )
            return TaskResult(ok=True, locations=locations, skipped=skipped, **base)
        part = run_reduce_task(
            cluster,
            payload["partition"],
            resolve(payload["reducer_id"]),
            payload["sources"],
            payload["output_path"],
        )
        return TaskResult(ok=True, part_path=part, **base)
    except ShuffleSourceLost as e:
        return TaskResult(ok=False, shuffle_lost=e.map_task_id, error=str(e), **base)
    except Exception as e:  # noqa: BLE001 - task failures go back to the master
        return TaskResult(ok=False, error=f"{type(e).__name__}: {e}", **base)


class SerialExecutor:
    """Runs submissions synchronously, in node order, at the next poll."""

    def __init__(self, workers: int):
        del workers
        self._queued: list[tuple[int, dict]] = []

    def submit(self, node: int, payload: dict) -> None:
        self._queued.append((node, payload))

    def poll(self) -> list[TaskResult]:
        batch = sorted(self._queued, key=lambda item: item[0])
        self._queued = []
        return [execute_task(p) for _, p in batch]

    def wait(self) -> list[TaskResult]:
        return self.poll()

    def shutdown(self) -> None:
        pass


class _PoolExecutor:
    def __init__(self, pool):
        self._pool = pool
        self._results: queue.Queue[TaskResult] = queue.Queue()
        self._inflight = 0

    def submit(self, node: int, payload: dict) -> None:
        del node  # pinning is logical; the master already picked the node
        self._inflight += 1
        fut = self._pool.submit(execute_task, payload)
        fut.add_done_callback(self._on_done)

    def _on_done(self, fut) -> None:
        try:
            self._results.put(fut.result())
        except Exception as e:  # pool-level failure (e.g. broken process)
            self._results.put(
                TaskResult(task_id="", attempt=-1, node=-1, kind="", ok=False,
                           error=f"{type(e).__name__}: {e}")
            )

    def _drain(self, block: bool) -> list[TaskResult]:
        out = []
        while True:
            try:
                out.append(self._results.get(block=block and not out))
                self._inflight -= 1
            except queue.Empty:
                return out

    def poll(self) -> list[TaskResult]:
        return self._drain(block=False)

    def wait(self) -> list[TaskResult]:
        if self._inflight == 0:
            return []
        return self._drain(block=True)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


def make_executor(name: str, workers: int, store_kind: str):
    if name == "serial":
        return SerialExecutor(workers)
    if name == "threads":
        return _PoolExecutor(ThreadPoolExecutor(max_workers=workers))
    if name == "processes":
        if store_kind != "disk":
            raise InvalidConfig("process workers require a disk-backed store")
        return _PoolExecutor(ProcessPoolExecutor(max_workers=workers))
    raise InvalidConfig(f"unknown executor {name!r}; use serial, threads or processes")
