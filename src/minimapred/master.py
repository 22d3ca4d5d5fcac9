"""Master-side job execution: the job's rules in ``MasterCore``, which
does no I/O, and ``Master``, the driver that runs them.

The core plans map tasks from the input's splits, assigns pending tasks to
idle live workers with locality preference, counts a logical tick per
scheduling round, fires scripted node deaths and applies the recovery
rules. Result batches (``step``) and tick advances (``fire`` opens a round,
``tick += 1`` closes it) go in and return the nodes they killed;
``dispatch`` returns (task id, attempt, node) triples. A test drives it
with hand-made ``InputSplit``s and ``TaskResult``s, with no cluster or
executor. The driver reads every node's dead marker once per job, takes
the first ``workers`` live nodes as workers, and writes each kill's marker
as the core returns it, before any further task runs. The marker stays
the one durable record of a death: a node killed by an earlier job on the
store gets no work, and its plan event never fires again.

Workers only talk back through TaskResult messages; a message whose attempt
number no longer matches the task's is stale (the task was reverted
meanwhile) and is dropped, which is what makes re-execution safe under any
interleaving. The accepted message stays on its task as the one record of
its outcome until a revert clears it; shuffle sources and the skip count
read it. Attempt and re-execution counts are read from the event log.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from . import fault
from .dfs import Cluster, InputSplit, part_file_path
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

        # the core's event log and, after a run, its final tick
        self.events: list[dict] = []
        self.tick = 0

    # -- public ------------------------------------------------------------

    def run(self) -> RunResult:
        started = time.perf_counter()
        try:
            meta = self.cluster.meta(self.spec.input_path)
        except NotFound:
            raise UnknownInput(f"input {self.spec.input_path!r} not in DFS") from None

        nodes = range(self.cluster.config.num_nodes)
        live = self.cluster.live_nodes()
        core = MasterCore(self.spec, self.cluster.make_splits(meta), self.plan,
                          live[:self.workers], set(nodes) - set(live), self.events)

        executor = make_executor(self.options.executor, self.workers,
                                 self.cluster.store.kind)
        try:
            self._loop(core, executor)
        except JobFailed as e:
            self._mark_dead(core.kills)  # made by the input that failed the job
            core.state.phase = Phase.FAILED
            report = core.report((time.perf_counter() - started) * 1000.0)
            raise JobFailed(str(e), report=report) from None
        finally:
            self.tick = core.tick
            executor.shutdown()
            for node in nodes:
                self.cluster.store.delete_local_tree(node, f"runs/{self.spec.job_id}")

        report = core.report((time.perf_counter() - started) * 1000.0)
        return RunResult(report, core.state, self.events)

    # -- driver loop ---------------------------------------------------------

    def _loop(self, core: MasterCore, executor) -> None:
        while True:
            self._mark_dead(core.fire())
            if self._step(core, executor.poll()):
                return
            dispatches = core.dispatch()
            for task_id, attempt, node in dispatches:
                self._dispatch(executor, core.state, task_id, attempt, node)
            if not dispatches and core.busy and self._step(core, executor.wait()):
                return
            core.tick += 1

    def _step(self, core: MasterCore, batch: list[TaskResult]) -> bool:
        """Feed a batch to the core; True once the job is done."""
        self._mark_dead(core.step(batch))
        return core.state.phase is Phase.DONE

    def _mark_dead(self, kills: list[int]) -> None:
        for node in kills:
            self.cluster.mark_node_dead(node)

    def _dispatch(self, executor, state: JobState, task_id: str, attempt: int,
                  node: int) -> None:
        task = state.task(task_id)
        # job_id repeats spec.job_id: perfbench/tracer.py reads it, with
        # task_id and attempt, from the payload inside worker processes
        payload = {
            "cluster": self.cluster,
            "spec": self.spec,
            "job_id": self.spec.job_id,
            "task_id": task_id,
            "attempt": attempt,
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
                         for m in state.map_tasks],
            )
        executor.submit(node, payload)


class MasterCore:
    """One job's rules: results and tick advances in, dispatches and kills
    out. ``workers`` may run tasks; ``dead`` holds the nodes dead so far,
    and ``kills`` those killed by an input that has not yet returned."""

    def __init__(self, spec: JobSpec, splits: list[InputSplit], plan: FailurePlan,
                 workers: list[int], dead: set[int], events: list[dict]):
        self.state = JobState(spec=spec, map_tasks=plan_map_tasks(splits),
                              reduce_tasks=plan_reduce_tasks(spec.num_reducers))
        # a misspelt task id would run the job with no failure; a late tick is legal
        task_ids = {t.task_id for t in self.state.map_tasks + self.state.reduce_tasks}
        unknown = [ev.after_task for ev in plan.events
                   if ev.after_task is not None and ev.after_task not in task_ids]
        if unknown:
            raise InvalidPlan(f"failure plan names tasks not in this job: {unknown}")
        self.plan = plan
        self.workers = workers
        self.dead = set(dead)
        self.events = events
        self.tick = 0
        self.kills: list[int] = []
        # nodes with an attempt in flight; a busy node gets no dispatch, so a
        # node's reply is always its one attempt's and frees it
        self.busy: set[int] = set()
        self._advance_phase()

    # -- inputs --------------------------------------------------------------

    def fire(self) -> list[int]:
        """Kill the node of every plan event due at this tick."""
        self._fire(lambda ev: ev.tick is not None and ev.tick <= self.tick)
        kills, self.kills = self.kills, []
        return kills

    def step(self, batch: list[TaskResult]) -> list[int]:
        """Handle a batch of results and advance the phase."""
        for msg in batch:
            self._handle(msg)
        self._advance_phase()
        kills, self.kills = self.kills, []
        return kills

    def dispatch(self) -> list[tuple[str, int, int]]:
        """Give pending tasks to idle live workers in one ``schedule`` call.
        Raises JobFailed if no task is in flight and none can be placed."""
        pending = self._pending()
        idle = [n for n in self.workers if n not in self.busy and n not in self.dead]
        assignments = schedule(pending, idle)
        if pending and not assignments and not self.busy:
            raise JobFailed(f"no live workers can run pending tasks "
                            f"{[t.task_id for t in pending]}")
        for task, node in assignments:
            task.state = TaskState.RUNNING
            task.assigned_node = node
            self.busy.add(node)
            self._log("dispatch", task=task.task_id, attempt=task.attempt, node=node)
        return [(task.task_id, task.attempt, node) for task, node in assignments]

    # -- rules ---------------------------------------------------------------

    def _pending(self) -> list[TaskDescriptor]:
        if self.state.phase is Phase.MAPPING:
            tasks = self.state.map_tasks
        else:
            tasks = self.state.reduce_tasks
        return [t for t in tasks if t.state is TaskState.PENDING]

    def _handle(self, msg: TaskResult) -> None:
        if msg.attempt < 0:  # executor-level failure, not tied to a task
            raise JobFailed(f"executor failure: {msg.error}")
        self.busy.discard(msg.node)
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
        if node in self.dead:
            return
        self._log("node_dead", node=node)
        self.dead.add(node)
        self.kills.append(node)
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

    def report(self, elapsed_ms: float) -> JobReport:
        def logged(event: str, task_prefix: str = "") -> int:
            return sum(e["event"] == event and e["task"].startswith(task_prefix)
                       for e in self.events)

        # a completed reduce is never reverted, so its part is final
        parts = [
            part_file_path(self.state.spec.output_path, t.payload)
            for t in self.state.reduce_tasks
            if t.state is TaskState.COMPLETED
        ]
        return JobReport(
            job_id=self.state.spec.job_id,
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
