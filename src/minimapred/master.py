"""Master-side job execution.

One Master instance drives one job: it plans map tasks from the input's
splits, assigns work to idle live nodes with locality preference, advances a
logical tick per scheduling round, injects scripted node deaths between
rounds, and applies the recovery rules when a node dies. Which nodes are
dead is read from the store's dead marker, the one record of node death,
so a node killed by an earlier job on the same store gets no work. The
marker also records that a plan event fired: its node stays dead, so the
event never fires again. Workers only talk back through TaskResult
messages; a message whose attempt number no longer matches the task's is
stale (the task was reverted meanwhile) and is dropped, which is what makes
re-execution safe under any interleaving.
The accepted message stays on its task as the one record of its outcome
until a revert clears it; shuffle sources and the skip count read it.
Attempt and re-execution counts are read from the event log.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from . import fault
from .dfs import Cluster, part_file_path
from .errors import (
    InvalidConfig,
    InvalidPlan,
    JobFailed,
    NotFound,
    UnknownInput,
)
from .executors import make_executor
from .fault import FailureEvent, FailurePlan
from .jobtypes import (JobReport, JobSpec, JobState, Phase, RunOptions, TaskDescriptor,
                       TaskResult, TaskState)
from .registry import is_combiner_safe, resolve
from .schedule import plan_map_tasks, plan_reduce_tasks, schedule


@dataclass
class RunResult:
    """Full outcome of a job run: the report, the final task states and the
    master's event log; submit_job returns only the report. Reducer inputs
    are not recorded: a caller that needs them registers a reducer that
    records its arguments."""

    report: JobReport
    state: JobState
    events: list[dict] = field(default_factory=list)


class Master:
    def __init__(
        self,
        cluster: Cluster,
        spec: JobSpec,
        options: RunOptions | None = None,
        failure_plan: FailurePlan | None = None,
    ):
        self.cluster = cluster
        self.spec = spec
        self.options = options or RunOptions()
        self.plan = failure_plan or FailurePlan()

        n = cluster.config.num_nodes
        self.workers = self.options.workers if self.options.workers is not None else n
        if not 1 <= self.workers <= n:
            raise InvalidConfig(
                f"workers must be in [1, num_nodes={n}], got {self.workers}"
            )
        self.plan.validate(n)
        # fail fast on unresolvable ids / unsafe combiners
        resolve(spec.mapper_id)
        resolve(spec.reducer_id)
        if spec.combiner_id is not None:
            resolve(spec.combiner_id)
            if not is_combiner_safe(spec.combiner_id):
                raise InvalidConfig(
                    f"combiner {spec.combiner_id!r} is not declared "
                    f"associative and commutative"
                )

        self.state: JobState | None = None
        self.events: list[dict] = []
        self.tick = 0
        # nodes with an attempt in flight; a busy node gets no dispatch, so a
        # node's reply is always its one attempt's and frees it
        self._busy: set[int] = set()

    # -- public ------------------------------------------------------------

    def run(self) -> RunResult:
        started = time.perf_counter()
        try:
            meta = self.cluster.meta(self.spec.input_path)
        except NotFound:
            raise UnknownInput(f"input {self.spec.input_path!r} not in DFS") from None

        splits = self.cluster.make_splits(meta)
        self.state = JobState(
            spec=self.spec,
            map_tasks=plan_map_tasks(splits),
            reduce_tasks=plan_reduce_tasks(self.spec.num_reducers),
        )
        # a misspelt task id would run the job with no failure; a late tick is legal
        task_ids = {t.task_id for t in self.state.map_tasks + self.state.reduce_tasks}
        unknown = [ev.after_task for ev in self.plan.events
                   if ev.after_task is not None and ev.after_task not in task_ids]
        if unknown:
            raise InvalidPlan(f"failure plan names tasks not in this job: {unknown}")
        self._advance_phase()

        executor = make_executor(self.options.executor, self.workers,
                                 self.cluster.store.kind)
        try:
            self._loop(executor)
        except JobFailed as e:
            self.state.phase = Phase.FAILED
            report = self._report(started)
            raise JobFailed(str(e), report=report) from None
        finally:
            executor.shutdown()
            for node in range(self.cluster.config.num_nodes):
                self.cluster.store.delete_local_tree(node, f"runs/{self.spec.job_id}")

        report = self._report(started)
        return RunResult(report, self.state, self.events)

    # -- scheduling loop ----------------------------------------------------

    def _loop(self, executor) -> None:
        while True:
            self._fire(lambda ev: ev.tick is not None and ev.tick <= self.tick)
            if self._step(executor.poll()):
                return
            if not self._dispatch_round(executor):
                if self._busy:
                    if self._step(executor.wait()):
                        return
                elif self._pending():
                    raise JobFailed(
                        f"no live workers can run pending tasks "
                        f"{[t.task_id for t in self._pending()]}"
                    )
            self.tick += 1

    def _step(self, batch: list[TaskResult]) -> bool:
        """Handle a batch of results and advance the phase; True once the
        job is done."""
        for msg in batch:
            self._handle(msg)
        self._advance_phase()
        return self.state.phase is Phase.DONE

    def _pending(self) -> list[TaskDescriptor]:
        if self.state.phase is Phase.MAPPING:
            tasks = self.state.map_tasks
        else:
            tasks = self.state.reduce_tasks
        return [t for t in tasks if t.state is TaskState.PENDING]

    def _dispatch_round(self, executor) -> int:
        idle = [
            n
            for n in range(self.workers)
            if n not in self._busy and not self.cluster.is_node_dead(n)
        ]
        assignments = schedule(self._pending(), idle)
        for task, node in assignments:
            self._dispatch(executor, task, node)
        return len(assignments)

    def _dispatch(self, executor, task: TaskDescriptor, node: int) -> None:
        task.state = TaskState.RUNNING
        task.assigned_node = node
        self._busy.add(node)
        self._log("dispatch", task=task.task_id, attempt=task.attempt, node=node)
        # job_id repeats spec.job_id: perfbench/tracer.py reads it, with
        # task_id and attempt, from the payload inside worker processes
        payload = {
            "cluster": self.cluster,
            "spec": self.spec,
            "job_id": self.spec.job_id,
            "task_id": task.task_id,
            "attempt": task.attempt,
            "node": node,
            "kind": task.kind,
        }
        if task.kind == "map":
            payload.update(
                split=task.payload,
                spill_pairs=self.options.spill_pairs,
            )
        else:
            partition = task.payload
            payload.update(
                partition=partition,
                sources=[(m.index, m.task_id, m.assigned_node, m.result.runs[partition])
                         for m in self.state.map_tasks],
            )
        executor.submit(node, payload)

    # -- message handling ---------------------------------------------------

    def _handle(self, msg: TaskResult) -> None:
        if msg.attempt < 0:  # executor-level failure, not tied to a task
            raise JobFailed(f"executor failure: {msg.error}")
        self._busy.discard(msg.node)
        task = self.state.task(msg.task_id)
        if msg.shuffle_lost is not None:
            self._log("shuffle_source_lost", reducer=msg.task_id,
                      map=msg.shuffle_lost)
        if (
            task.attempt != msg.attempt
            or task.state is not TaskState.RUNNING
            or task.assigned_node != msg.node
        ):
            self._log("stale_result", task=msg.task_id, attempt=msg.attempt,
                      node=msg.node)
            return

        if msg.error is None:
            task.state = TaskState.COMPLETED
            task.result = msg
            self._log("complete", task=task.task_id, attempt=task.attempt,
                      node=msg.node)
            self._fire(lambda ev: ev.after_task == task.task_id)
            return

        if msg.shuffle_lost is not None:
            # a reducer found a source run unreadable: re-execute that map
            lost = self.state.task(msg.shuffle_lost)
            if lost.state is TaskState.COMPLETED:
                fault.revert(lost, msg.error)
                self._log("reexecute_completed_map", task=lost.task_id)
        else:
            self._log("task_failed", task=task.task_id, attempt=task.attempt,
                      node=msg.node, error=msg.error)
        fault.revert(task, msg.error)

    def _fire(self, due: Callable[[FailureEvent], bool]) -> None:
        """Kill the node of every plan event that is ``due``, in plan order.
        A fired event's node is dead for good and ``_kill`` skips a dead
        node, so each event fires at most once."""
        for ev in self.plan.events:
            if due(ev):
                self._kill(ev.node_id)

    def _kill(self, node: int) -> None:
        if self.cluster.is_node_dead(node):
            return
        self._log("node_dead", node=node)
        self.cluster.mark_node_dead(node)
        summary = fault.recover(self.state, node)
        for task_id in summary.reverted_completed_maps:
            self._log("reexecute_completed_map", task=task_id)
        for task_id in summary.restarted_reduces:
            self._log("restart_reduce", task=task_id)

    def _advance_phase(self) -> None:
        maps_done = all(t.state is TaskState.COMPLETED for t in self.state.map_tasks)
        reduces_done = all(
            t.state is TaskState.COMPLETED for t in self.state.reduce_tasks
        )
        if not maps_done:
            new = Phase.MAPPING
        elif not reduces_done:
            new = Phase.REDUCING
        else:
            new = Phase.DONE
        if new is not self.state.phase:
            self._log("phase", phase=new.value)
            self.state.phase = new

    def _log(self, event: str, **kw) -> None:
        self.events.append({"tick": self.tick, "event": event, **kw})

    # -- reporting -----------------------------------------------------------

    def _report(self, started: float) -> JobReport:
        elapsed_ms = (time.perf_counter() - started) * 1000.0

        def logged(event: str, task_prefix: str = "") -> int:
            return sum(e["event"] == event and e["task"].startswith(task_prefix)
                       for e in self.events)

        # a completed reduce is never reverted, so its part is final
        parts = [
            part_file_path(self.spec.output_path, t.payload)
            for t in self.state.reduce_tasks
            if t.state is TaskState.COMPLETED
        ]
        return JobReport(
            job_id=self.spec.job_id,
            phase=self.state.phase.value,
            map_attempts=logged("dispatch", "map-"),
            reduce_attempts=logged("dispatch", "reduce-"),
            elapsed_ms=elapsed_ms,
            parts=parts,
            map_tasks=len(self.state.map_tasks),
            reduce_tasks=len(self.state.reduce_tasks),
            re_executed_completed_maps=logged("reexecute_completed_map"),
            re_executed_completed_reduces=logged("complete", "reduce-") - len(parts),
            skipped_records=sum(t.result.skipped for t in self.state.map_tasks if t.result),
            tasks=[
                {
                    "task_id": t.task_id,
                    "kind": t.kind,
                    "state": t.state.value,
                    "attempt": t.attempt,
                    "node": t.assigned_node,
                }
                for t in self.state.map_tasks + self.state.reduce_tasks
            ],
        )


def run_job(
    cluster: Cluster,
    spec: JobSpec,
    options: RunOptions | None = None,
    failure_plan: FailurePlan | None = None,
) -> RunResult:
    """Run a job and return the full result (report, final task states,
    event log)."""
    return Master(cluster, spec, options, failure_plan).run()


def submit_job(
    cluster: Cluster,
    spec: JobSpec,
    options: RunOptions | None = None,
    failure_plan: FailurePlan | None = None,
) -> JobReport:
    """Run a job to completion; raises JobFailed (with .report) on failure."""
    return run_job(cluster, spec, options, failure_plan).report
