"""FNV-1a hashing: key partitioning and seeded chunk placement."""

from __future__ import annotations

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def partition_for_key(key: bytes, num_reducers: int) -> int:
    """Deterministic reducer index in [0, num_reducers) for a key;
    JobSpec checks that num_reducers is at least 1."""
    return fnv1a64(key) % num_reducers


def placement_hash(seed: int, path: str) -> int:
    """Seeded per-file hash used to rotate the replica placement start node."""
    return fnv1a64((seed & _MASK64).to_bytes(8, "little") + path.encode("utf-8"))
