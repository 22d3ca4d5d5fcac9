"""Registry of map/reduce/combine functions addressable by id.

Jobs reference functions by string id so task payloads stay picklable for
process-based workers. Combiners must be declared associative and
commutative; the engine refuses undeclared ones.

A mapper id may also carry a *split form*, which the engine runs instead
of calling the record mapper once per record. It is called as
``split(records, combiner)``, where ``records`` is the split's
``(offset, line)`` iterator and ``combiner`` is the job's resolved
combiner or None, and it yields ``(key, values)`` groups:

- keys may come in any order, and may repeat; every ``values`` list is
  non-empty and new, because the engine takes ownership of it;
- the values of a key, joined across its groups in order, are exactly
  the record mapper's emissions for that key, in emission order;
- the one exception: a split form may replace a key's values with the
  values of ``combiner(key, values)``, but only for a combiner it knows
  exactly (compare it by identity), so any other combiner still sees the
  raw values.

A split form cannot skip records, so mappers that raise SkipRecord keep
only their record form. The record mapper stays the mapper's definition.
"""

from __future__ import annotations

from typing import Callable

from .errors import UnknownFunction

# id -> (function, combiner-safe, split form or None)
_entries: dict[str, tuple[Callable, bool, Callable | None]] = {}
_UNREGISTERED = (None, False, None)


def register(fn_id: str, fn: Callable, combiner_safe: bool = False,
             split: Callable | None = None) -> None:
    """Register ``fn`` under ``fn_id``, replacing whatever the id had.

    ``split`` is an optional split form of a record mapper ``fn``, held to
    the contract in this module's docstring.
    """
    _entries[fn_id] = (fn, bool(combiner_safe), split)


def resolve(fn_id: str) -> Callable:
    _ensure_builtins()
    try:
        return _entries[fn_id][0]
    except KeyError:
        raise UnknownFunction(f"function id {fn_id!r} is not registered") from None


def resolve_split(fn_id: str) -> Callable | None:
    """The split form registered with mapper ``fn_id``, or None."""
    _ensure_builtins()
    return _entries.get(fn_id, _UNREGISTERED)[2]


def is_combiner_safe(fn_id: str) -> bool:
    _ensure_builtins()
    return _entries.get(fn_id, _UNREGISTERED)[1]


def registered_ids() -> list[str]:
    _ensure_builtins()
    return sorted(_entries)


def _ensure_builtins() -> None:
    # idempotent; worker processes resolve ids without prior setup
    from . import jobs  # noqa: F401
