"""Exception types shared across the storage layer, engine and CLI."""


class MiniMapRedError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfig(MiniMapRedError):
    """Cluster or job configuration violates an invariant."""


def require_ints(what: str, *values) -> None:
    """Raise InvalidConfig naming ``what`` unless every value is an int;
    not isinstance: True is an int and would pass as 1."""
    bad = [v for v in values if type(v) is not int]
    if bad:
        raise InvalidConfig(f"{what} must be integers, got {bad[0]!r}")


class AlreadyExists(MiniMapRedError):
    """A file with this path is already stored."""


class NotFound(MiniMapRedError):
    """No file stored under this path."""


class ChunkUnavailable(MiniMapRedError):
    """Every replica of a chunk lives on a dead node."""

    def __init__(self, chunk_index: int, path: str = ""):
        self.chunk_index = chunk_index
        self.path = path
        super().__init__(f"chunk {chunk_index} of {path!r} has no live replica")


class ShuffleSourceLost(MiniMapRedError):
    """A map task's intermediate runs are gone (its node died); the map
    task must be re-executed before the shuffle can proceed."""

    def __init__(self, map_task_id: str):
        self.map_task_id = map_task_id
        super().__init__(f"intermediate runs of {map_task_id} are unreadable")


class UnknownInput(MiniMapRedError):
    """Job input path does not exist in the DFS."""


class UnknownFunction(MiniMapRedError):
    """Mapper/reducer/combiner id is not registered."""


class JobFailed(MiniMapRedError):
    """The job could not complete (task exceeded max attempts, input
    unreadable, or no live workers left)."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class InvalidPlan(MiniMapRedError):
    """Failure plan references unknown nodes or is otherwise malformed."""


class ReportError(MiniMapRedError):
    """Benchmark report cannot be computed (missing baseline rows)."""


class SkipRecord(MiniMapRedError):
    """Raised by a mapper to skip a malformed input record; the engine
    counts the skip and moves on instead of failing the task."""
