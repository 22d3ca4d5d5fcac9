"""FNV-1a hashing: key partitioning and seeded chunk placement."""

from __future__ import annotations

import sys
from array import array

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# partitions_for_keys hashes up to _LANES keys of one length at once, each in
# a 16-byte lane of one integer: a 64-bit hash times the 41-bit prime stays
# below 2**128, so no lane carries into the next.
_LANES = 1024
_LANE_OFFSETS = _FNV_OFFSET.to_bytes(16, "little") * _LANES
_LANE_MASKS = _MASK64.to_bytes(16, "little") * _LANES


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def partitions_for_keys(keys: list[bytes], num_reducers: int) -> list[int]:
    """``[fnv1a64(k) % num_reducers for k in keys]``, the reducer index of
    each key, computed per byte position for a batch of keys of one length
    at a time; JobSpec checks that num_reducers is at least 1."""
    by_length: dict[int, list[int]] = {}
    for i, k in enumerate(keys):
        by_length.setdefault(len(k), []).append(i)
    out = [0] * len(keys)
    for length, indices in by_length.items():
        for lo in range(0, len(indices), _LANES):
            batch = indices[lo:lo + _LANES]
            hashes = _fnv1a64_lanes(b"".join([keys[i] for i in batch]), len(batch), length)
            for i, h in zip(batch, hashes):
                out[i] = h % num_reducers
    return out


def _fnv1a64_lanes(joined: bytes, n: int, length: int) -> array:
    """The FNV-1a hashes of the ``n`` keys of ``length`` bytes laid end to
    end in ``joined``: each round XORs byte ``i`` of every key into its
    lane, multiplies all lanes by the prime at once and masks them to 64
    bits."""
    size = 16 * n
    h = int.from_bytes(_LANE_OFFSETS[:size], "little")
    mask = int.from_bytes(_LANE_MASKS[:size], "little")
    column = bytearray(size)
    for i in range(length):
        column[::16] = joined[i::length]
        h = ((h ^ int.from_bytes(column, "little")) * _FNV_PRIME) & mask
    lanes = array("Q", h.to_bytes(size, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes[::2]


def placement_hash(seed: int, path: str) -> int:
    """Seeded per-file hash used to rotate the replica placement start node."""
    return fnv1a64((seed & _MASK64).to_bytes(8, "little") + path.encode("utf-8"))
