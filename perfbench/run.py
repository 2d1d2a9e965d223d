"""Benchmark entry point: one workload, one run, one JSON result line.

Usage::

    python3 perfbench/run.py --workload campaign_cli --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from its
``src`` directory. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports the per-layer metrics of a
traced run (half the time untraced, half traced, so the tracing
overhead is measured in the same run). Lines before the last are
human-readable: the environment record and the workload's own
metrics, ``metric <name> <value> <unit>``. The last line is the result.

``set-up`` is sampled three times and the median reported. For the
in-process workloads the two extra samples come from fresh
interpreters started with ``--setup-probe``. Both they and the checks
a workload defers past its window (the service replay) run after the
peak memory has been read, so neither counts in ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import (
    SRC,
    GuardError,
    check_env_overrides,
    child_env,
    cpu_ticks,
    host_record,
    host_speed_s,
    peak_rss_mb,
    steal_frac,
)

SETUP_SAMPLES = 3
E2E_UNITS = {"setup_s": "s", "latency_ms": "ms", "ops_per_s": "1/s",
             "peak_rss_mb": "MiB"}


def _probe_setup(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        env=child_env(), capture_output=True, text=True, timeout=150,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up sample (smoke check)")
    ap.add_argument("--corrupt", action="store_true",
                    help="alter the first checked output (smoke check)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        check_env_overrides()
    except GuardError as exc:
        print(f"error: environment guard: {exc}", file=sys.stderr)
        return 3

    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        setup_s = workload.setup(args.seed, smoke=False)
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    speed = [host_speed_s()]
    try:
        setup = [workload.setup(args.seed, args.smoke)]
        t0, ticks = time.perf_counter(), cpu_ticks()
        outcome = workload.measure(args.seconds, bool(args.trace),
                                   args.corrupt)
        measured_s = time.perf_counter() - t0
        steal = steal_frac(ticks, cpu_ticks())
    except GuardError as exc:
        print(f"error: environment guard: {exc}", file=sys.stderr)
        return 3
    finally:
        workload.close()
    rss = peak_rss_mb()
    speed.append(host_speed_s())
    for check in outcome.deferred:
        check()
    while not args.smoke and len(setup) < SETUP_SAMPLES:
        if workload.in_process_setup:
            setup.append(_probe_setup(args.workload, args.seed))
        else:
            setup.append(workload.setup(args.seed, False))

    if "numpy" in sys.modules:
        import numpy
        import scipy

        outcome.env.update(numpy=numpy.__version__, scipy=scipy.__version__)
    env = {**host_record(args.seed), "workload": args.workload,
           "guard": {"kernel_backend": "vector",
                     "REPRO_KERNELS": os.environ.get("REPRO_KERNELS"),
                     "REPRO_DIST_LISTEN": None,
                     "result_cache": "fresh, memory-only"},
           "setup_samples_s": setup, "measured_s": measured_s,
           "cpu_steal_frac": steal, "host_speed_s": speed,
           **outcome.env}
    print("env " + json.dumps(env, sort_keys=True))
    e2e = {**outcome.e2e, "setup_s": statistics.median(setup),
           "peak_rss_mb": rss}
    info = {"setup_s": (e2e["setup_s"], "s"), "peak_rss_mb": (rss, "MiB"),
            "failed_frac": (outcome.failed / max(outcome.attempted, 1),
                            "frac"),
            **outcome.info}
    for name, (value, unit) in info.items():
        print(f"metric {name} {value!r} {unit}")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in outcome.layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
