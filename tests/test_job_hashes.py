"""Serial jobs whose event log, report, map runs and part bytes are pinned
by hash.

Each case runs one wordcount job on a fresh 4-node cluster and compares
SHA-256 hashes of its serial event log, its report (less ``elapsed_ms``),
its accepted map runs (names and bytes) and its part bytes with
``job_hashes.json``. A refactor that claims to change nothing observable
must leave every hash as it is. After a change that alters a job's output
or log on purpose, rewrite the table with

    PYTHONPATH=src python tests/test_job_hashes.py > tests/job_hashes.json
"""

import hashlib
import itertools
import json
import os
import sys

import pytest

from minimapred import Cluster, ClusterConfig, FailurePlan, JobSpec, RunOptions, run_job
from minimapred.bench import token_lines

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "job_hashes.json")

DATA = token_lines(3000, vocab_size=40, seed=5)
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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def job_hashes(case: str, root: str) -> dict[str, str]:
    """Run ``case`` (store-combine-spill<n>-plan) on a fresh cluster, with
    a disk store under ``root``, and hash what it left."""
    store, combine, spill, plan = case.split("-", 3)
    if store == "disk":
        cluster = Cluster.open_disk(root, CONFIG)
    else:
        cluster = Cluster(CONFIG)
    cluster.put_file("in", DATA)
    cluster.store.delete_local_tree = lambda node, prefix: None  # keep the runs to hash
    spec = JobSpec(job_id="wc", input_path="in", output_path="out",
                   mapper_id="wordcount.map", reducer_id="wordcount.reduce",
                   combiner_id="wordcount.combine" if combine == "combine" else None,
                   num_reducers=2)
    options = RunOptions(executor="serial", spill_pairs=int(spill.removeprefix("spill")))
    res = run_job(cluster, spec, options, FailurePlan.parse(PLANS[plan]))
    assert res.report.phase == "done"
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {case: job_hashes(case, os.path.join(tmp, case)) for case in CASES}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
