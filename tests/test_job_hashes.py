"""Serial jobs whose event log, report, map runs and part bytes are pinned
by hash.

Each case runs one built-in job, wordcount or uservisits, on a fresh 4-node
cluster and compares SHA-256 hashes of its serial event log, its report
(less ``elapsed_ms``), its accepted map runs (names and bytes) and its part
bytes with ``job_hashes.json``. A refactor that claims to change nothing
observable must leave every hash as it is. After a change that alters a
job's output or log on purpose, rewrite the table with

    PYTHONPATH=src python tests/test_job_hashes.py > tests/job_hashes.json
"""

import hashlib
import itertools
import json
import os
import sys

import pytest

from minimapred import Cluster, ClusterConfig, FailurePlan, RunOptions, run_job
from minimapred.bench import token_lines
from minimapred.jobs import job_spec, uservisits_lines

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "job_hashes.json")

WC_DATA = token_lines(3000, vocab_size=40, seed=5)


def _uservisits_data(rows: int, every: int) -> tuple[bytes, int]:
    """``rows`` visit rows with every ``every``-th replaced by a malformed
    one, cycling through two fields, ``n/a`` and ``inf``; returns (data,
    malformed row count)."""
    bad = (b"10.0.0.1|two-fields\n", b"10.0.0.1|d|n/a|x\n", b"10.0.0.1|d|inf|x\n")
    lines = uservisits_lines(rows, seed=5).splitlines(keepends=True)
    lines[every - 1::every] = [bad[i % 3] for i in range(rows // every)]
    return b"".join(lines), rows // every


UV_DATA, UV_MALFORMED = _uservisits_data(40, 5)
CONFIG = ClusterConfig(num_nodes=4, chunk_size=400, replication=2, seed=11)  # 8 map tasks
PLANS = {
    "none": [],
    "kill-mapping": ["1:after:map-2"],
    "kill-reducing": ["2:after:reduce-0"],
    "kill-tick": ["3:2"],
}
CASES = [f"{store}-{combine}-spill{spill}-{plan}" for store, combine, spill, plan in
         itertools.product(("memory", "disk"), ("combine", "nocombine"),
                           (20, 10**9), PLANS)]
CASES += [f"uservisits-{store}-spill{spill}-{plan}" for store, spill, plan in
          itertools.product(("memory", "disk"), (20, 10**9), PLANS)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def job_hashes(case: str, root: str) -> dict[str, str]:
    """Run ``case`` (wordcount's store-combine-spill<n>-plan, or
    uservisits-store-spill<n>-plan) on a fresh cluster, with a disk store
    under ``root``, and hash what it left."""
    if case.startswith("uservisits-"):
        store, spill, plan = case.removeprefix("uservisits-").split("-", 2)
        data, spec = UV_DATA, job_spec("uservisits", "uv", "in", "out", 2)
        skipped = UV_MALFORMED
    else:
        store, combine, spill, plan = case.split("-", 3)
        data, spec = WC_DATA, job_spec("wordcount", "wc", "in", "out", 2,
                                       combine=combine == "combine")
        skipped = 0
    if store == "disk":
        cluster = Cluster.open_disk(root, CONFIG)
    else:
        cluster = Cluster(CONFIG)
    cluster.put_file("in", data)
    cluster.store.delete_local_tree = lambda node, prefix: None  # keep the runs to hash
    options = RunOptions(executor="serial", spill_pairs=int(spill.removeprefix("spill")))
    res = run_job(cluster, spec, options, FailurePlan.parse(PLANS[plan]))
    assert res.report.phase == "done"
    assert res.report.skipped_records == skipped
    report = {k: v for k, v in vars(res.report).items() if k != "elapsed_ms"}
    runs = hashlib.sha256()
    for task in res.state.map_tasks:
        for name in itertools.chain.from_iterable(task.result.runs):
            runs.update(name.encode() + b"\0")
            with cluster.store.open_local_read(task.result.node, name) as f:
                runs.update(f.read())
    return {
        "events": _sha(json.dumps(res.events, sort_keys=True).encode()),
        "report": _sha(json.dumps(report, sort_keys=True).encode()),
        "runs": runs.hexdigest(),
        "parts": _sha(b"\0".join(cluster.get_file(p) for p in res.report.parts)),
    }


@pytest.mark.parametrize("case", CASES)
def test_job_hashes_match_table(case, tmp_path):
    with open(TABLE) as f:
        expected = json.load(f)[case]
    assert job_hashes(case, str(tmp_path / "store")) == expected


def test_table_rows_are_the_cases():
    # a stale row or a case without a row means the table was not regenerated
    with open(TABLE) as f:
        assert sorted(json.load(f)) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {case: job_hashes(case, os.path.join(tmp, case)) for case in CASES}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
