"""Outside-in tracing of one minimapred job.

Every span is recorded by a wrapper that this module installs over a public
entry point of the engine (module functions, class methods, registered
function ids); nothing under ``src/`` knows it is being traced. A span is a
dict with ``name``, ``trace`` (the job id), ``id``, ``parent``, ``pid``,
``start``, ``end``, ``dur`` and the counts taken at the same boundary.

``dur`` is busy time. For a call it is end - start. For a generator
boundary (``read_split``, the shuffle stream, ``iter_run`` consumers) it is
the time spent inside ``next()``, and ``start``/``end`` are the first and
last of those calls. Call-per-record boundaries (mapper, combiner, reducer,
meta lookups) are aggregated into one span per (name, parent). A span's
self time is its ``dur`` minus the ``dur`` of the spans whose parent it is;
children only run while their parent is on the stack, so they nest.

Spans are kept in memory. Under the ``processes`` executor the wrappers
are installed before the pool forks, so workers inherit them; a worker
appends its spans to ``spans.<pid>.jsonl`` in the span directory after
each task (the pool ends the worker with the job), and the parent merges
those files when the job ends.
"""

from __future__ import annotations

import functools
import json
import os
import time

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.owner_pid = os.getpid()
        self.trace_id = ""
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # cleared in place: hot wrappers hold on to the stack and tables
        if not hasattr(self, "stack"):
            self.stack: list[str] = []
            self._tables: dict[tuple[str, tuple[str, ...]], dict] = {}
        self.stack.clear()
        for table in self._tables.values():
            table.clear()
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._agg: dict[tuple[str, str | None], dict] = {}
        self._seq = 0
        self.last_task_end = float("-inf")

    # -- recording ----------------------------------------------------------

    def _open(self, name: str, start: float) -> dict:
        self._seq += 1
        return {
            "name": name,
            "trace": self.trace_id,
            "id": f"{os.getpid()}:{self._seq}",
            "parent": self.stack[-1] if self.stack else None,
            "pid": os.getpid(),
            "start": start,
            "end": start,
            "dur": 0.0,
        }

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one span; returns (result, span)."""
        s = self._open(name, perf_counter())
        self.stack.append(s["id"])
        try:
            return fn(*args, **kwargs), s
        finally:
            self.stack.pop()
            s["end"] = perf_counter()
            s["dur"] = s["end"] - s["start"]
            self.spans.append(s)

    def aggregate(self, name: str, t0: float, t1: float, **counts) -> None:
        """Fold one short call into the (name, current parent) span."""
        parent = self.stack[-1] if self.stack else None
        s = self._agg.get((name, parent))
        if s is None:
            s = self._agg[(name, parent)] = self._open(name, t0)
            s["calls"] = 0
        s["calls"] += 1
        s["dur"] += t1 - t0
        s["end"] = t1
        for k, v in counts.items():
            s[k] = s.get(k, 0) + v

    def table(self, name: str, fields: tuple[str, ...]) -> dict:
        """Accumulators for a call-per-record boundary, keyed by parent span
        id: ``[start, busy, calls, *fields]``. Callers update them inline,
        which costs less than ``aggregate``; ``_take`` turns each into a
        span."""
        return self._tables.setdefault((name, fields), {})

    def iterate(self, name: str, it, measure=None):
        """Yield from ``it``, timing each ``next()`` as busy time of one span.

        ``measure(item)`` returns the bytes an item carries, summed into
        ``bytes``; ``items`` counts what was yielded.
        """
        nxt = iter(it).__next__
        stack = self.stack
        push, pop = stack.append, stack.pop
        s = None
        busy = 0.0
        items = 0
        nbytes = 0
        t1 = 0.0
        try:
            t0 = perf_counter()
            s = self._open(name, t0)
            sid = s["id"]
            while True:
                push(sid)
                try:
                    item = nxt()
                except StopIteration:
                    pop()
                    t1 = perf_counter()
                    busy += t1 - t0
                    return
                except BaseException:
                    pop()
                    t1 = perf_counter()
                    busy += t1 - t0
                    raise
                pop()
                t1 = perf_counter()
                busy += t1 - t0
                items += 1
                if measure is not None:
                    nbytes += measure(item)
                yield item
                t0 = perf_counter()
        finally:
            if s is not None:
                s["dur"] = busy
                s["end"] = t1
                s["items"] = items
                if measure is not None:
                    s["bytes"] = nbytes
                self.spans.append(s)

    def count(self, name: str, n: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- collection ---------------------------------------------------------

    def _take(self) -> tuple[list[dict], dict[str, float]]:
        spans = self.spans + list(self._agg.values())
        for (name, fields), table in self._tables.items():
            for parent, acc in table.items():
                self._seq += 1
                s = {"name": name, "trace": self.trace_id,
                     "id": f"{os.getpid()}:{self._seq}", "parent": parent,
                     "pid": os.getpid(), "start": acc[0], "end": acc[0] + acc[1],
                     "dur": acc[1], "calls": acc[2]}
                s.update(zip(fields, acc[3:]))
                spans.append(s)
            table.clear()
        counters = self.counters
        self.spans, self._agg, self.counters = [], {}, {}
        return spans, counters

    def flush_worker(self) -> None:
        """In a forked worker: append this task's spans to the pid file."""
        spans, counters = self._take()
        path = os.path.join(self.span_dir, f"spans.{os.getpid()}.jsonl")
        with open(path, "a") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
            f.write(json.dumps({"counters": counters}) + "\n")

    def in_worker(self) -> bool:
        return os.getpid() != self.owner_pid

    def collect(self) -> tuple[list[dict], dict[str, float]]:
        """This process's spans plus every worker's, merged; clears both."""
        spans, counters = self._take()
        for name in sorted(os.listdir(self.span_dir)):
            if not (name.startswith("spans.") and name.endswith(".jsonl")):
                continue
            path = os.path.join(self.span_dir, name)
            with open(path) as f:
                for line in f:
                    rec = json.loads(line)
                    if "counters" in rec:
                        for k, v in rec["counters"].items():
                            counters[k] = counters.get(k, 0) + v
                    else:
                        spans.append(rec)
            os.remove(path)
        return spans, counters


# ---------------------------------------------------------------------------
# wrappers


class _CountingSink:
    """Local-run writer proxy: counts bytes, times writes and the close."""

    def __init__(self, tracer: Tracer, sink):
        self._t = tracer
        self._sink = sink

    def write(self, data) -> int:
        t0 = perf_counter()
        n = self._sink.write(data)
        self._t.aggregate("dfs.local_write", t0, perf_counter(), bytes=len(data))
        return n

    def close(self) -> None:
        t0 = perf_counter()
        self._sink.close()
        self._t.aggregate("dfs.local_close", t0, perf_counter())


class _CountingSource:
    """Local-run reader proxy: counts and times reads."""

    def __init__(self, tracer: Tracer, f):
        self._t = tracer
        self._f = f

    def read(self, n: int = -1) -> bytes:
        t0 = perf_counter()
        data = self._f.read(n)
        self._t.aggregate("dfs.local_read", t0, perf_counter(), bytes=len(data))
        return data

    def close(self) -> None:
        self._f.close()


class _ExecutorProxy:
    """Times the master's calls into an executor and stamps each payload
    with its submit time, so the worker can report queue wait."""

    def __init__(self, tracer: Tracer, inner):
        self._t = tracer
        self._inner = inner

    def submit(self, node: int, payload: dict) -> None:
        payload["perfbench_submit_t"] = perf_counter()
        self._t.call("executors.submit", self._inner.submit, node, payload)

    def poll(self):
        return self._t.call("executors.poll", self._inner.poll)[0]

    def wait(self):
        return self._t.call("executors.wait", self._inner.wait)[0]

    def shutdown(self) -> None:
        self._t.call("executors.shutdown", self._inner.shutdown)


class TimedEvents(list):
    """The master's event log, with the time each event was appended."""

    def __init__(self):
        super().__init__()
        self.times: list[float] = []

    def append(self, event) -> None:
        super().append(event)
        self.times.append(perf_counter())


class Installation:
    """Monkeypatches the engine's entry points; ``remove()`` restores them.

    Wrappers pass their arguments through unchanged and take counts from
    return values. An entry point the engine no longer has raises
    ``AttributeError`` here rather than being skipped, because its metrics
    would silently read 0 and look like a gain. ``master_info`` receives,
    per job, the master's final tick and its timed event log.
    """

    def __init__(self, tracer: Tracer):
        self.master_info: dict = {}
        self._saved: list[tuple[object, str, object]] = []
        try:
            self._install(tracer)
        except BaseException:
            self.remove()
            raise

    def _install(self, tracer: Tracer) -> None:
        import minimapred.dfs as dfs
        import minimapred.executors as executors
        import minimapred.fault as fault
        import minimapred.master as master
        import minimapred.tasks as tasks

        t = tracer

        def patch(owner, attr, make):
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            wrapper = make(orig)
            functools.update_wrapper(wrapper, orig)
            setattr(owner, attr, wrapper)

        # -- dfs: cluster entry points --------------------------------------
        def traced(name, count=None):
            """Wrapper factory: one span per call; ``count(result, args)``
            returns the span's extra counts."""
            def make(orig):
                def wrapper(*args, **kwargs):
                    result, s = t.call(name, orig, *args, **kwargs)
                    if count is not None:
                        s.update(count(result, args))
                    return result
                return wrapper
            return make

        def data_bytes(args) -> int:
            data = args[-1] if args else b""
            return len(data) if isinstance(data, (bytes, bytearray, memoryview)) else 0

        patch(dfs.Cluster, "read_split", lambda orig: lambda *args, **kwargs: t.iterate(
            "dfs.read_split", orig(*args, **kwargs), lambda rec: len(rec[1]) + 1))
        # (cluster, path, data, ...): part-file writes are put_file calls
        # nested in write_output
        patch(dfs.Cluster, "put_file", traced(
            "dfs.put_file", lambda _, args: {"bytes": len(args[2])}))
        patch(dfs.Cluster, "write_output", traced("dfs.write_output"))

        # -- dfs: store methods ---------------------------------------------
        lookup_depth = [0]

        def meta_lookup(orig):
            def wrapper(*args, **kwargs):
                lookup_depth[0] += 1
                t0 = perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    lookup_depth[0] -= 1
                    if lookup_depth[0] == 0:  # DiskStore.get_meta nests get_meta_by_id
                        t.aggregate("dfs.meta", t0, perf_counter())
            return wrapper

        def timed(name):
            def make(orig):
                def wrapper(*args, **kwargs):
                    t0 = perf_counter()
                    try:
                        return orig(*args, **kwargs)
                    finally:
                        t.aggregate(name, t0, perf_counter())
                return wrapper
            return make

        def open_local_write(orig):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                sink = orig(*args, **kwargs)
                t.aggregate("dfs.local_open", t0, perf_counter())
                if ".spill" in str(args[-1] if args else kwargs.get("name", "")):
                    t.count("tasks.spill.files", 1)
                return _CountingSink(t, sink)
            return wrapper

        def open_local_read(orig):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                f = orig(*args, **kwargs)
                t.aggregate("dfs.local_open", t0, perf_counter())
                return _CountingSource(t, f)
            return wrapper

        for store_cls in (dfs.DiskStore, dfs.MemoryStore):
            patch(store_cls, "get_meta", meta_lookup)
            patch(store_cls, "get_meta_by_id", meta_lookup)
            patch(store_cls, "read_chunk", traced(
                "dfs.read_chunk", lambda data, _: {"bytes": len(data)}))
            patch(store_cls, "write_chunk", traced(
                "dfs.write_chunk", lambda _, args: {"bytes": data_bytes(args)}))
            patch(store_cls, "put_meta", timed("dfs.put_meta"))
            patch(store_cls, "is_dead", timed("dfs.is_dead"))
            patch(store_cls, "open_local_write", open_local_write)
            patch(store_cls, "open_local_read", open_local_read)
            patch(store_cls, "delete_local", timed("dfs.local_delete"))
            patch(store_cls, "delete_local_tree", timed("dfs.local_delete"))

        # -- tasks ------------------------------------------------------------
        patch(tasks, "write_run", traced(
            "tasks.write_run", lambda n, _: {"pairs": n}))

        def iter_run(orig):
            def wrapper(*args, **kwargs):
                n = 0
                try:
                    for pair in orig(*args, **kwargs):
                        n += 1
                        yield pair
                finally:
                    t.count("tasks.iter_run.pairs", n)
            return wrapper
        patch(tasks, "iter_run", iter_run)

        def shuffle_fetch(orig):
            def wrapper(*args, **kwargs):
                stream, _ = t.call("tasks.shuffle_fetch", orig, *args, **kwargs)
                return t.iterate("tasks.shuffle_merge", stream)
            return wrapper
        patch(tasks, "shuffle_fetch", shuffle_fetch)
        patch(tasks, "group_by_key", lambda orig: lambda *args, **kwargs: t.iterate(
            "tasks.group_by_key", orig(*args, **kwargs)))
        patch(executors, "run_map_task", traced("tasks.run_map_task"))
        patch(executors, "run_reduce_task", traced("tasks.run_reduce_task"))

        # -- executors ----------------------------------------------------------
        def execute_task(orig):
            def wrapper(payload):
                if t.in_worker():
                    t.trace_id = payload["job_id"]
                result, s = t.call("executors.execute_task", orig, payload)
                s["task_id"] = payload["task_id"]
                s["attempt"] = payload["attempt"]
                # waiting starts at submit, or when this process finished
                # its previous task if that was later (serial runs a batch
                # of submissions back to back)
                ready = max(payload.get("perfbench_submit_t", s["start"]), t.last_task_end)
                s["queue_wait"] = max(0.0, s["start"] - ready)
                t.last_task_end = s["end"]
                s["remote"] = t.in_worker()
                if t.in_worker() and not t.stack:
                    t.flush_worker()
                return result
            return wrapper
        patch(executors, "execute_task", execute_task)

        def make_executor(orig):
            def wrapper(*args, **kwargs):
                return _ExecutorProxy(t, t.call("executors.start", orig, *args, **kwargs)[0])
            return wrapper
        patch(master, "make_executor", make_executor)

        # -- master, schedule, fault -------------------------------------------
        def locality(assignments, _):
            maps = [(task, node) for task, node in assignments if task.kind == "map"]
            return {"map_dispatches": len(maps), "local_dispatches": sum(
                node in task.payload.preferred_nodes for task, node in maps)}
        patch(master, "schedule", traced("master.schedule", locality))
        patch(fault, "recover", traced("fault.recover", lambda summary, _: {
            "reexecuted_maps": len(summary.reverted_completed_maps),
            "restarted_reduces": len(summary.restarted_reduces)}))

        info = self.master_info

        def master_run(orig):
            def wrapper(m):
                m.events = TimedEvents()
                try:
                    return orig(m)
                finally:
                    info["ticks"] = m.tick
                    info["events"] = m.events
            return wrapper
        patch(master.Master, "run", master_run)

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


def register_timed_functions(tracer: Tracer, fn_ids: list[str]) -> dict[str, str]:
    """Register a timing wrapper for each function id through the engine's
    own ``register()``; returns {original id: traced id}.

    Mappers count emitted pairs and skipped records; reducers and combiners
    count groups and input values.
    """
    from minimapred.errors import SkipRecord
    from minimapred.registry import is_combiner_safe, register, resolve

    stack = tracer.stack
    ids = {}
    for fn_id in fn_ids:
        fn = resolve(fn_id)
        layer = "jobs." + fn_id.rsplit(".", 1)[1]  # jobs.map / jobs.reduce / jobs.combine
        if layer == "jobs.map":
            table = tracer.table(layer, ("pairs_out", "skipped"))

            def wrapper(offset, line, fn=fn, table=table):
                t0 = perf_counter()
                try:
                    out = fn(offset, line)
                    n, skipped = len(out), 0
                except SkipRecord:
                    n, skipped = 0, 1
                    raise
                finally:
                    t1 = perf_counter()
                    parent = stack[-1] if stack else None
                    acc = table.get(parent)
                    if acc is None:
                        acc = table[parent] = [t0, 0.0, 0, 0, 0]
                    acc[1] += t1 - t0
                    acc[2] += 1
                    acc[3] += n
                    acc[4] += skipped
                return out
        else:
            table = tracer.table(layer, ("values_in",))

            def wrapper(key, values, fn=fn, table=table):
                t0 = perf_counter()
                out = fn(key, values)
                t1 = perf_counter()
                parent = stack[-1] if stack else None
                acc = table.get(parent)
                if acc is None:
                    acc = table[parent] = [t0, 0.0, 0, 0]
                acc[1] += t1 - t0
                acc[2] += 1
                acc[3] += len(values)
                return out
        traced_id = "perfbench." + fn_id
        register(traced_id, wrapper, combiner_safe=is_combiner_safe(fn_id))
        ids[fn_id] = traced_id
    return ids
