"""MapReduce over a simulated multi-node cluster.

Storage: files live as equal-sized chunks replicated across nodes; map
output runs live node-locally and die with their node; reducer output goes
back to the replicated store. Execution: a master assigns map tasks with
data locality, workers sort and partition their output, reducers merge the
sorted runs. Scripted node deaths exercise the recovery rules, and a
benchmark harness measures size/worker scaling as ratio properties.
"""

from . import jobs  # noqa: F401 - registers the built-in jobs, in workers too
from .dfs import Chunk, Cluster, ClusterConfig, FileMeta, InputSplit, Record
from .errors import (
    AlreadyExists,
    ChunkUnavailable,
    InvalidConfig,
    InvalidPlan,
    JobFailed,
    MiniMapRedError,
    NotFound,
    ReportError,
    ShuffleSourceLost,
    SkipRecord,
    UnknownFunction,
    UnknownInput,
)
from .fault import FailureEvent, FailurePlan, recover
from .jobtypes import JobReport, JobSpec, JobState, Phase, RunOptions, TaskDescriptor, TaskState
from .master import Master, RunResult, run_job, submit_job
from .registry import register, registered_ids, resolve

__version__ = "0.1.0"

__all__ = [
    "AlreadyExists",
    "Chunk",
    "ChunkUnavailable",
    "Cluster",
    "ClusterConfig",
    "FailureEvent",
    "FailurePlan",
    "FileMeta",
    "InputSplit",
    "InvalidConfig",
    "InvalidPlan",
    "JobFailed",
    "JobReport",
    "JobSpec",
    "JobState",
    "Master",
    "MiniMapRedError",
    "NotFound",
    "Phase",
    "Record",
    "recover",
    "register",
    "registered_ids",
    "ReportError",
    "resolve",
    "RunOptions",
    "RunResult",
    "run_job",
    "ShuffleSourceLost",
    "SkipRecord",
    "submit_job",
    "TaskDescriptor",
    "TaskState",
    "UnknownFunction",
    "UnknownInput",
]
