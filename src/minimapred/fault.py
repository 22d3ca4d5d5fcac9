"""Deterministic failure injection and recovery bookkeeping.

Node deaths are scripted, not random: each event kills one node either at a
logical tick (one tick = one master scheduling round) or right after a named
task first completes. Death is recorded once, in the store (its dead marker),
so it lasts for every later job on that store; the master asks the store
which nodes are dead and never keeps a copy of its own. Recovery follows two
rules: map results live on the node that produced them, so a dead node
invalidates even *completed* map tasks; reduce results live in the
replicated DFS, so completed reduce tasks are never re-executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidPlan, JobFailed
from .jobtypes import JobState, Phase, TaskDescriptor, TaskState


@dataclass(frozen=True)
class FailureEvent:
    node_id: int
    tick: int | None = None
    after_task: str | None = None

    def __post_init__(self):
        if (self.tick is None) == (self.after_task is None):
            raise InvalidPlan("event needs exactly one trigger: tick or after_task")


@dataclass(frozen=True)
class FailurePlan:
    events: tuple[FailureEvent, ...] = ()

    def validate(self, num_nodes: int) -> None:
        seen = set()
        for ev in self.events:
            if not 0 <= ev.node_id < num_nodes:
                raise InvalidPlan(f"node {ev.node_id} out of range [0, {num_nodes})")
            if ev.node_id in seen:
                raise InvalidPlan(f"more than one kill event for node {ev.node_id}")
            seen.add(ev.node_id)

    @classmethod
    def parse(cls, specs: list[str]) -> "FailurePlan":
        """Parse repeatable CLI flags: ``<node>:<tick>`` or
        ``<node>:after:<task-id>``."""
        events = []
        for spec in specs:
            parts = spec.split(":")
            try:
                if len(parts) == 2:
                    events.append(FailureEvent(node_id=int(parts[0]), tick=int(parts[1])))
                elif len(parts) == 3 and parts[1] == "after":
                    events.append(FailureEvent(node_id=int(parts[0]), after_task=parts[2]))
                else:
                    raise ValueError(spec)
            except ValueError:
                raise InvalidPlan(
                    f"bad failure spec {spec!r}; expected <node>:<tick> "
                    f"or <node>:after:<task-id>"
                ) from None
        return cls(tuple(events))


class PlanExecution:
    """Tracks which events of a plan have fired (each fires at most once)."""

    def __init__(self, plan: FailurePlan):
        self._pending = list(plan.events)

    def due_at_tick(self, tick: int) -> list[int]:
        due = [ev for ev in self._pending if ev.tick is not None and ev.tick <= tick]
        self._pending = [ev for ev in self._pending if ev not in due]
        return [ev.node_id for ev in due]

    def due_after_task(self, task_id: str) -> list[int]:
        due = [ev for ev in self._pending if ev.after_task == task_id]
        self._pending = [ev for ev in self._pending if ev not in due]
        return [ev.node_id for ev in due]


@dataclass
class RecoverySummary:
    reverted_running: list[str] = field(default_factory=list)
    reverted_completed_maps: list[str] = field(default_factory=list)
    restarted_reduces: list[str] = field(default_factory=list)


def revert(task: TaskDescriptor, max_attempts: int, detail: str | None = None) -> None:
    """Send a task back to pending with its next attempt number; raise
    JobFailed, ending with ``detail`` if given, past ``max_attempts``."""
    task.attempt += 1
    if task.attempt > max_attempts:
        raise JobFailed(f"task {task.task_id} exceeded {max_attempts} attempts"
                        + (f": {detail}" if detail else ""))
    task.state = TaskState.PENDING
    task.assigned_node = None
    task.result_locations = None


def recover(job: JobState, dead_node: int, max_attempts: int) -> RecoverySummary:
    """Apply the recovery rules for one confirmed-dead node.

    Running tasks on the node are lost. Completed map tasks whose runs lived
    there go back to pending (their output was node-local). Completed reduce
    tasks are untouched (their output is replicated). If map work was lost
    while reducing, every not-yet-completed reducer has to rebuild its merge
    from the re-executed runs, so running reducers are reverted too.
    """
    summary = RecoverySummary()

    for task in job.map_tasks + job.reduce_tasks:
        if task.state is TaskState.RUNNING and task.assigned_node == dead_node:
            revert(task, max_attempts)
            summary.reverted_running.append(task.task_id)

    for task in job.map_tasks:
        if task.state is TaskState.COMPLETED and any(
            node == dead_node for node, _ in (task.result_locations or [])
        ):
            revert(task, max_attempts)
            summary.reverted_completed_maps.append(task.task_id)

    if summary.reverted_completed_maps and job.phase is Phase.REDUCING:
        job.phase = Phase.MAPPING
        for task in job.reduce_tasks:
            if task.state is TaskState.RUNNING:
                revert(task, max_attempts)
                summary.restarted_reduces.append(task.task_id)

    return summary
