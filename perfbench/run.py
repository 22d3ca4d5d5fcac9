"""Job-level benchmark of minimapred.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wc-combine --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) on the engine under ``src/`` for
the given number of seconds and prints a report, then, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones (job_s, input_mb_per_s,
setup_s, peak_rss_mb); with ``--trace 1`` they are the per-layer ones of
``BENCHMARK.json``. Exits 2 without a result when the checkout has no
engine sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "minimapred", "__init__.py")):
        print(f"perfbench: no engine sources at {SRC}/minimapred; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), ROOT)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
