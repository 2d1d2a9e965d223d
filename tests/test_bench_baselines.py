"""The committed governor and power-cap baselines reproduce exactly.

``benchmarks/BENCH_governor.json`` pins every (world, policy, seed)
decision trace by SHA-256 and ``benchmarks/BENCH_powercap.json`` every
(phase, budget, policy) makespan. Re-running either script must give
the same document: decisions (trace digests, final frequencies,
convergence flags, refit counts) compare exactly, and modeled floats
(joules, seconds, watts) to a relative 1e-9, so a last-ulp libm
difference on another host does not fail the check but a flipped
decision always does.
"""

import json
import math
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Keys whose whole subtree must match bit-for-bit.
EXACT = {"trace_sha256", "frequencies", "converged", "refits"}
#: Modeled floats compared to a relative tolerance.
RELATIVE = {"energy_j", "runtime_s", "regret_j", "makespan_s", "spent_w"}
REL_TOL = 1e-9


def _run(script, tmp_path):
    out = tmp_path / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "benchmarks", script),
         "--output", str(out)],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def _compare(expected, actual, path="", key=None):
    """Yield one message per leaf where *actual* departs from *expected*."""
    if key in EXACT:
        if actual != expected:
            yield f"{path}: {actual!r} != {expected!r}"
        return
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            yield f"{path}: keys {sorted(actual)} != {sorted(expected)}"
            return
        for k in sorted(expected):
            yield from _compare(expected[k], actual[k], f"{path}/{k}", k)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            yield f"{path}: length {len(actual)} != {len(expected)}"
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            yield from _compare(e, a, f"{path}[{i}]", key)
    elif key in RELATIVE:
        if not math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0):
            yield f"{path}: {actual!r} != {expected!r} (rel {REL_TOL})"
    elif actual != expected:
        yield f"{path}: {actual!r} != {expected!r}"


@pytest.mark.parametrize(
    "script, baseline",
    [
        ("governor_regret.py", "BENCH_governor.json"),
        ("powercap_efficiency.py", "BENCH_powercap.json"),
    ],
)
def test_rerun_matches_committed_baseline(script, baseline, tmp_path):
    with open(os.path.join(REPO, "benchmarks", baseline)) as fh:
        expected = json.load(fh)
    actual = _run(script, tmp_path)
    mismatches = list(_compare(expected, actual))
    assert not mismatches, "\n".join(mismatches)


class TestCompare:
    def test_flipped_decision_is_reported(self):
        doc = {"a": [{"trace_sha256": "x", "energy_j": 1.0}]}
        bad = {"a": [{"trace_sha256": "y", "energy_j": 1.0}]}
        assert list(_compare(doc, bad)) == ["/a[0]/trace_sha256: 'y' != 'x'"]

    def test_last_ulp_float_is_tolerated_but_a_real_move_is_not(self):
        doc = {"makespan_s": 4.5625}
        assert not list(_compare(doc, {"makespan_s": math.nextafter(4.5625, 5)}))
        assert list(_compare(doc, {"makespan_s": 4.5626}))

    def test_exact_fields_allow_no_tolerance(self):
        doc = {"frequencies": {"compress": 1.75}}
        assert list(_compare(doc, {"frequencies": {"compress": 1.7500000001}}))
