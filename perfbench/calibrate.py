"""Host-speed probe, run in an interpreter of its own:

    python3 perfbench/calibrate.py

For each line ``probe`` on standard input it runs a fixed kernel shaped
like a map task (split 2 MiB of tokens, build (token, value) pairs, group
them in a dict, sort the pairs) for at least ``PROBE_S`` seconds and
answers one line ``<elapsed seconds> <kernels run>``. It exits on ``quit``
or at the end of its input.

The benchmark starts it once per run and asks for a probe between jobs.
The engine is never imported here, so nothing the engine leaves behind in
the benchmark's interpreter (caches, long-lived objects, garbage-collector
settings) changes how fast the kernel runs: only the host's speed does.
"""

from __future__ import annotations

import sys
import time
from operator import itemgetter

from workloads import MIB, token_text

PROBE_S = 0.3


def kernel(data: bytes) -> None:
    pairs = [(token, b"1") for token in data.split()]
    groups: dict[bytes, list[bytes]] = {}
    for key, value in pairs:
        values = groups.get(key)
        if values is None:
            groups[key] = [value]
        else:
            values.append(value)
    pairs.sort(key=itemgetter(0))


def main() -> None:
    data = token_text(2 * MIB, seed=0)
    perf_counter = time.perf_counter
    for line in sys.stdin:
        if line.strip() != "probe":
            break
        t0 = perf_counter()
        n = 0
        while perf_counter() - t0 < PROBE_S:
            kernel(data)
            n += 1
        print(f"{perf_counter() - t0!r} {n}", flush=True)


if __name__ == "__main__":
    main()
