"""Deterministic failure injection and recovery bookkeeping.

Node deaths are scripted, not random: each event kills one node either at a
logical tick (one tick = one master scheduling round) or right after a named
task first completes. Death is recorded once, in the store (its dead marker),
so it lasts for every later job on that store; the master reads the markers
once per job and writes a kill's marker as it happens. Recovery follows two
rules: map results live on the node that produced them, so a dead node
invalidates even *completed* map tasks; reduce results live in the
replicated DFS, so completed reduce tasks are never re-executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidPlan, JobFailed
from .jobtypes import JobState, Phase, TaskDescriptor, TaskState

MAX_TASK_ATTEMPTS = 4


@dataclass(frozen=True)
class FailureEvent:
    node_id: int
    tick: int | None = None
    after_task: str | None = None

    def __post_init__(self):
        # not isinstance: True is an int, and would kill node 1
        if type(self.node_id) is not int or type(self.tick) not in (int, type(None)):
            raise InvalidPlan(f"node_id and tick must be integers: {self.node_id!r}, {self.tick!r}")
        if (self.tick is None) == (self.after_task is None):
            raise InvalidPlan("event needs exactly one trigger: tick or after_task")
        if self.tick is not None and self.tick < 0:
            raise InvalidPlan(f"tick must be >= 0, got {self.tick}")


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


@dataclass
class RecoverySummary:
    reverted_completed_maps: list[str] = field(default_factory=list)
    restarted_reduces: list[str] = field(default_factory=list)


def revert(task: TaskDescriptor, detail: str | None = None) -> None:
    """Send a task back to pending with its next attempt number; raise
    JobFailed, ending with ``detail`` if given, past ``MAX_TASK_ATTEMPTS``."""
    task.attempt += 1
    if task.attempt > MAX_TASK_ATTEMPTS:
        raise JobFailed(f"task {task.task_id} exceeded {MAX_TASK_ATTEMPTS} attempts"
                        + (f": {detail}" if detail else ""))
    task.state = TaskState.PENDING
    task.assigned_node = None
    task.result = None


def recover(job: JobState, dead_node: int) -> RecoverySummary:
    """Apply the recovery rules for one confirmed-dead node.

    Every task assigned to the node is looked at once. A running one is
    lost and goes back to pending. A completed map goes back to pending
    too, since its runs lived on the node that ran it. A completed reduce
    is untouched (its output is replicated). If map work was lost while
    reducing, every not-yet-completed reducer has to rebuild its merge from
    the re-executed runs, so running reducers are reverted too. The phase
    is left to the master, which moves it back to mapping and logs the
    change. A task reverted past ``MAX_TASK_ATTEMPTS`` raises JobFailed.
    """
    summary = RecoverySummary()

    for task in job.map_tasks + job.reduce_tasks:
        if task.assigned_node != dead_node:
            continue
        if task.state is TaskState.RUNNING:
            revert(task)
        elif task.state is TaskState.COMPLETED and task.kind == "map":
            revert(task)
            summary.reverted_completed_maps.append(task.task_id)

    if summary.reverted_completed_maps and job.phase is Phase.REDUCING:
        for task in job.reduce_tasks:
            if task.state is TaskState.RUNNING:
                revert(task)
                summary.restarted_reduces.append(task.task_id)

    return summary
