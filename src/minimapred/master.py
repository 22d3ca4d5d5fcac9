"""Master-side job execution.

One Master instance drives one job: it plans map tasks from the input's
splits, assigns work to idle live nodes with locality preference, advances a
logical tick per scheduling round, injects scripted node deaths between
rounds, and applies the recovery rules when a node dies. Which nodes are
dead is read from the store's dead marker, the one record of node death,
so a node killed by an earlier job on the same store gets no work. Workers
only talk back through TaskResult messages; a message whose attempt number
no longer matches the task's is stale (the task was reverted meanwhile) and
is dropped, which is what makes re-execution safe under any interleaving.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import fault
from .dfs import Cluster, part_file_path
from .errors import (
    InvalidConfig,
    JobFailed,
    NotFound,
    UnknownInput,
)
from .executors import TaskResult, make_executor
from .fault import FailurePlan, PlanExecution
from .jobtypes import (MAX_TASK_ATTEMPTS, JobReport, JobSpec, JobState, Phase, RunOptions,
                       TaskDescriptor, TaskState)
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
        self._busy: dict[int, tuple[str, int]] = {}  # node -> (task_id, attempt)
        self._plan_exec = PlanExecution(self.plan)
        self._skipped: dict[str, int] = {}
        self._last_error: dict[str, str] = {}
        self._dispatches = {"map": 0, "reduce": 0}
        self._re_executed_maps = 0

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
            for node in self._plan_exec.due_at_tick(self.tick):
                self._kill(node)
            for msg in executor.poll():
                self._handle(msg)
            self._advance_phase()
            if self.state.phase in (Phase.DONE, Phase.FAILED):
                return

            dispatched = self._dispatch_round(executor)
            if not dispatched:
                if self._busy:
                    for msg in executor.wait():
                        self._handle(msg)
                    self._advance_phase()
                    if self.state.phase in (Phase.DONE, Phase.FAILED):
                        return
                elif self._pending():
                    raise JobFailed(
                        f"no live workers can run pending tasks "
                        f"{[t.task_id for t in self._pending()]}"
                    )
            self.tick += 1

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
        self._busy[node] = (task.task_id, task.attempt)
        self._dispatches[task.kind] += 1
        self._log("dispatch", task=task.task_id, attempt=task.attempt, node=node)
        payload = {
            "cluster": self.cluster,
            "job_id": self.spec.job_id,
            "task_id": task.task_id,
            "attempt": task.attempt,
            "node": node,
            "kind": task.kind,
        }
        if task.kind == "map":
            payload.update(
                split=task.payload,
                mapper_id=self.spec.mapper_id,
                combiner_id=self.spec.combiner_id,
                num_reducers=self.spec.num_reducers,
                spill_pairs=self.options.spill_pairs,
            )
        else:
            partition = task.payload
            payload.update(
                partition=partition,
                reducer_id=self.spec.reducer_id,
                sources=[
                    (m.index, m.task_id, *m.result_locations[partition])
                    for m in self.state.map_tasks
                ],
                output_path=self.spec.output_path,
            )
        executor.submit(node, payload)

    # -- message handling ---------------------------------------------------

    def _handle(self, msg: TaskResult) -> None:
        if msg.attempt < 0:  # executor-level failure, not tied to a task
            raise JobFailed(f"executor failure: {msg.error}")
        if self._busy.get(msg.node) == (msg.task_id, msg.attempt):
            del self._busy[msg.node]
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

        if msg.ok:
            task.state = TaskState.COMPLETED
            self._log("complete", task=task.task_id, attempt=task.attempt,
                      node=msg.node)
            if task.kind == "map":
                task.result_locations = msg.locations
                self._skipped[task.task_id] = msg.skipped
            for node in self._plan_exec.due_after_task(task.task_id):
                self._kill(node)
            return

        if msg.shuffle_lost is not None:
            # a reducer found a source run unreadable: re-execute that map
            lost = self.state.task(msg.shuffle_lost)
            if lost.state is TaskState.COMPLETED:
                self._revert(lost)
                self._re_executed_maps += 1
            self._revert(task)
            return

        self._log("task_failed", task=task.task_id, attempt=task.attempt,
                  node=msg.node, error=msg.error)
        self._last_error[task.task_id] = msg.error or "unknown error"
        self._revert(task)

    def _revert(self, task: TaskDescriptor) -> None:
        fault.revert(task, MAX_TASK_ATTEMPTS, self._last_error.get(task.task_id))

    def _kill(self, node: int) -> None:
        if self.cluster.is_node_dead(node):
            return
        self._log("node_dead", node=node)
        self.cluster.mark_node_dead(node)
        summary = fault.recover(self.state, node, MAX_TASK_ATTEMPTS)
        self._re_executed_maps += len(summary.reverted_completed_maps)
        for task_id in summary.reverted_completed_maps:
            self._log("reexecute_completed_map", task=task_id)
        for task_id in summary.restarted_reduces:
            self._log("restart_reduce", task=task_id)

    def _advance_phase(self) -> None:
        if self.state.phase in (Phase.DONE, Phase.FAILED):
            return
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
        # a completed reduce is never reverted, so its part is final
        parts = [
            part_file_path(self.spec.output_path, t.payload)
            for t in self.state.reduce_tasks
            if t.state is TaskState.COMPLETED
        ]
        return JobReport(
            job_id=self.spec.job_id,
            phase=self.state.phase.value,
            map_attempts=self._dispatches["map"],
            reduce_attempts=self._dispatches["reduce"],
            elapsed_ms=elapsed_ms,
            parts=parts,
            map_tasks=len(self.state.map_tasks),
            reduce_tasks=len(self.state.reduce_tasks),
            re_executed_completed_maps=self._re_executed_maps,
            skipped_records=sum(self._skipped.values()),
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
