"""Job, task and report types shared by the master, workers and CLI."""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field

from .dfs import InputSplit
from .errors import InvalidConfig

MAX_TASK_ATTEMPTS = 4
SPILL_PAIRS = 512 * 1024  # default map-side buffered values before a spill


@dataclass(frozen=True)
class JobSpec:
    """What to run: input, output, registered function ids, reducer count."""

    job_id: str
    input_path: str
    output_path: str
    mapper_id: str
    reducer_id: str
    combiner_id: str | None = None
    num_reducers: int = 1

    def __post_init__(self):
        # the job deletes runs/<job_id> on every node at its end
        if self.job_id in ("", ".", "..") or "/" in self.job_id or "\\" in self.job_id:
            raise InvalidConfig(f"job_id must be one path component, got {self.job_id!r}")
        if self.num_reducers < 1:
            raise InvalidConfig(f"num_reducers must be >= 1, got {self.num_reducers}")


class TaskState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"


@dataclass
class TaskDescriptor:
    """Master-side bookkeeping for one map or reduce task.

    ``attempt`` counts re-assignments: 0 for a task that ran (or will run)
    once, +1 every time the task is sent back to pending after a failure or
    a lost result. For completed map tasks ``result_locations`` holds one
    (node, run names) pair per reduce partition: the partition's spill runs
    in spill order, then its final run.
    """

    task_id: str
    kind: str  # "map" | "reduce"
    payload: InputSplit | int
    state: TaskState = TaskState.PENDING
    attempt: int = 0
    assigned_node: int | None = None
    result_locations: list[tuple[int, tuple[str, ...]]] | None = None

    @property
    def index(self) -> int:
        return int(self.task_id.rsplit("-", 1)[1])


class Phase(enum.Enum):
    MAPPING = "mapping"
    REDUCING = "reducing"
    DONE = "done"
    FAILED = "failed"


@dataclass
class JobState:
    spec: JobSpec
    map_tasks: list[TaskDescriptor]
    reduce_tasks: list[TaskDescriptor]
    phase: Phase = Phase.MAPPING

    def task(self, task_id: str) -> TaskDescriptor:
        kind = task_id.split("-", 1)[0]
        tasks = self.map_tasks if kind == "map" else self.reduce_tasks
        for t in tasks:
            if t.task_id == task_id:
                return t
        raise KeyError(task_id)


@dataclass
class RunOptions:
    """Execution knobs independent of the job itself: how many workers, which
    executor runs them, and how many values a map task buffers before it
    spills. None of them changes the part bytes of a job that completes."""

    workers: int | None = None  # default: one worker per node
    executor: str = "threads"  # "serial" | "threads" | "processes"
    # map-side buffered values before a spill: emitted pairs on the record
    # path, and fewer where a split form pre-combines a key's values
    spill_pairs: int = SPILL_PAIRS

    def __post_init__(self):
        if self.spill_pairs < 1:
            raise InvalidConfig(f"spill_pairs must be >= 1, got {self.spill_pairs}")


@dataclass
class JobReport:
    """Summary returned by submit_job; serializable to JSON."""

    job_id: str
    phase: str
    map_attempts: int
    reduce_attempts: int
    elapsed_ms: float
    parts: list[str]
    map_tasks: int = 0
    reduce_tasks: int = 0
    re_executed_completed_maps: int = 0
    re_executed_completed_reduces: int = 0
    skipped_records: int = 0
    tasks: list[dict] = field(default_factory=list)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(asdict(self), indent=indent)
