"""Smoke check of the benchmark itself.

Usage (from the root of a checkout)::

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and asserts
that the result line names exactly the metrics of ``BENCHMARK.json``
with their units and counts every operation as correct. Then runs each
workload with ``--corrupt`` (a wrong campaign line, a flipped container
byte, a changed fleet report, an altered service response) and asserts
the failure is counted. Last, it asserts that the benchmark refuses to
run without the program's source. Exits non-zero on the first failure.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import HERE, ROOT

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, *flags: str, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", "1",
           "--smoke", *flags]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == RESULT_KEYS, sorted(doc)
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert isinstance(doc["failed"], int)
    return doc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            doc = result(run(workload, "--trace", trace))
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            assert got == declared[trace], (workload, trace, sorted(
                set(got.items()) ^ set(declared[trace].items())))
            assert all(isinstance(v["value"], (int, float))
                       for v in doc["metrics"].values())
            assert doc["correct"] and doc["failed"] == 0, (workload, doc)
        doc = result(run(workload, "--trace", "0", "--corrupt"))
        assert doc["failed"] >= 1 and not doc["correct"], (workload, doc)
        print(f"ok {workload}")

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copytree(HERE, bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("campaign_cli", "--trace", "0", cwd=bare)
        assert proc.returncode != 0, "ran without the program's source"
        assert not proc.stdout.strip(), proc.stdout
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
