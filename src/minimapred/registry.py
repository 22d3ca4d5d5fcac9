"""Registry of map/reduce/combine functions addressable by id.

Jobs reference functions by string id so task payloads stay picklable for
process-based workers. Combiners must be declared associative and
commutative; the engine refuses undeclared ones. A combiner is an optional
partial merge: the engine may run it zero or more times per key, never on
a key with a lone value, so the reducer must give the same output whether
or not a combiner has seen the values. A combiner returns pairs for the key
it was given: the engine has already partitioned and sorted that key, and a
map task whose combiner returns another key fails.

The engine runs every mapper through its *split form*: the one registered
with it, or else ``per_record`` of the record mapper. It is called as
``split(blocks, combiner)``, where ``blocks`` is the split's iterator of
``(offset, bytes)`` blocks from ``Cluster.read_split`` (whole records
joined by ``b"\\n"``; ``dfs.records`` expands them into the record mapper's
``(offset, line)`` records) and ``combiner`` is the job's resolved
combiner or None, and it yields ``(key, values)`` groups:

- keys may come in any order, and may repeat; every ``values`` list is
  non-empty and new, because the engine takes ownership of it;
- the values of a key, joined across its groups in order, are exactly
  the record mapper's emissions for that key, in emission order;
- the one exception: a split form may replace a key's values with the
  values of ``combiner(key, values)``, but only for a combiner it knows
  exactly (compare it by identity), so any other combiner still sees the
  raw values.

A split form that is a generator may return the number of records it
skipped (None counts as 0). The record mapper stays the mapper's definition.
"""

from __future__ import annotations

from typing import Callable

from .dfs import records
from .errors import SkipRecord, UnknownFunction

# id -> (function, combiner-safe, split form)
_entries: dict[str, tuple[Callable, bool, Callable]] = {}

PER_RECORD_WINDOW = 4096  # pairs per_record gathers before it hands them on


def register(fn_id: str, fn: Callable, combiner_safe: bool = False,
             split: Callable | None = None) -> None:
    """Register ``fn`` under ``fn_id``, replacing whatever the id had.

    ``split`` is an optional split form of a record mapper ``fn``, held to
    the contract in this module's docstring; without it, ``per_record(fn)``.
    """
    _entries[fn_id] = (fn, bool(combiner_safe), split or per_record(fn))


def per_record(fn: Callable) -> Callable:
    """The split form that expands the blocks with ``dfs.records``, calls
    record mapper ``fn`` per record, counts the records it rejects with
    SkipRecord, and hands on its values grouped per key, in emission order,
    every ``PER_RECORD_WINDOW`` pairs: a map task running it holds about
    spill_pairs + PER_RECORD_WINDOW values."""
    def split(blocks, combiner):
        groups: dict[bytes, list[bytes]] = {}
        skipped = pending = 0
        for offset, line in records(blocks):
            try:
                pairs = fn(offset, line)
            except SkipRecord:
                skipped += 1
                continue
            for k, v in pairs:
                vals = groups.get(k)
                if vals is None:
                    groups[k] = [v]
                else:
                    vals.append(v)
                pending += 1
            if pending >= PER_RECORD_WINDOW:
                yield from groups.items()
                groups, pending = {}, 0
        yield from groups.items()
        return skipped
    return split


def resolve(fn_id: str) -> Callable:
    try:
        return _entries[fn_id][0]
    except KeyError:
        raise UnknownFunction(f"function id {fn_id!r} is not registered") from None


def resolve_split(fn_id: str) -> Callable:
    """The split form of mapper ``fn_id``; an unknown id raises as in resolve."""
    resolve(fn_id)
    return _entries[fn_id][2]


def is_combiner_safe(fn_id: str) -> bool:
    return fn_id in _entries and _entries[fn_id][1]


def registered_ids() -> list[str]:
    return sorted(_entries)
