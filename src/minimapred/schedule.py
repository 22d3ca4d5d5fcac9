"""Task planning and locality-aware assignment."""

from __future__ import annotations

from .dfs import InputSplit
from .jobtypes import TaskDescriptor


def plan_map_tasks(splits: list[InputSplit]) -> list[TaskDescriptor]:
    """One pending map task per input split, attempt 0."""
    return [
        TaskDescriptor(task_id=f"map-{s.split_index}", kind="map", payload=s)
        for s in splits
    ]


def plan_reduce_tasks(num_reducers: int) -> list[TaskDescriptor]:
    return [
        TaskDescriptor(task_id=f"reduce-{i}", kind="reduce", payload=i)
        for i in range(num_reducers)
    ]


def schedule(
    pending: list[TaskDescriptor], idle_nodes: list[int]
) -> list[tuple[TaskDescriptor, int]]:
    """Pair pending tasks with distinct idle nodes, in two passes.

    First, each map task in task-id order takes the first idle node in its
    split's replica list, if one is idle (data locality). Then the tasks
    left take the lowest-numbered idle nodes in task-id order. A task with
    no idle replica thus never displaces a later task from its local node.
    Reduce tasks have no locality preference. Tasks are ordered by task id
    (map before reduce, then by index), and so is the result.
    """
    tasks = sorted(pending, key=lambda t: (t.kind, t.index))
    idle = set(idle_nodes)
    chosen: dict[str, int] = {}
    for task in tasks:
        if task.kind == "map":
            node = next((n for n in task.payload.preferred_nodes if n in idle), None)
            if node is not None:
                idle.discard(node)
                chosen[task.task_id] = node
    for task in tasks:
        if not idle:
            break
        if task.task_id not in chosen:
            chosen[task.task_id] = node = min(idle)
            idle.discard(node)
    return [(task, chosen[task.task_id]) for task in tasks if task.task_id in chosen]
