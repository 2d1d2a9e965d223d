"""Paths, child environments, the measuring loop and the environment record."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"


class GuardError(RuntimeError):
    """The environment would measure something other than the default path."""


def child_env() -> dict:
    """Environment for every child: this checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def check_env_overrides() -> None:
    """Refuse environment variables that would change the measured path."""
    kernels = os.environ.get("REPRO_KERNELS")
    if kernels and kernels != "vector":
        raise GuardError(f"REPRO_KERNELS={kernels!r} overrides the vector "
                         "kernel backend")
    if os.environ.get("REPRO_DIST_LISTEN"):
        raise GuardError("REPRO_DIST_LISTEN would turn the 2-worker fleet "
                         "into an external one")


def check_backend(backend: str) -> None:
    if backend != "vector":
        raise GuardError(f"active kernel backend is {backend!r}, not 'vector'")


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def run_for(seconds: float, unit, min_units: int = 1) -> None:
    """Call ``unit(i)`` for i = 0, 1, ... for about *seconds* seconds.

    A unit starts only while the time left exceeds half the median
    unit, so a run overshoots its budget by at most half a unit and
    every unit counted is whole.
    """
    t0 = time.perf_counter()
    durations = []
    while True:
        start = time.perf_counter()
        unit(len(durations))
        durations.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - t0
        if (len(durations) >= min_units
                and elapsed + statistics.median(durations) / 2 > seconds):
            return


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, *q* in [0, 1]."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]


def quiet_time(times) -> float:
    """The lower quartile of operation times.

    Load from outside the benchmark (CPU steal from other guests of a
    shared VM) only ever slows an operation, and it comes in bursts of
    several seconds. The faster quartile of a run tracks the program;
    the median of a run caught in a burst tracks the neighbours.
    """
    return percentile(times, 0.25)


def quiet_rate(rates) -> float:
    """The upper quartile of rates, for the reason :func:`quiet_time` gives."""
    return percentile(rates, 0.75)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _cache_size(level: int) -> int:
    name = f"SC_LEVEL{level}_CACHE_SIZE"
    if name in os.sysconf_names:
        try:
            size = os.sysconf(name)
        except (OSError, ValueError):
            size = 0
        if size > 0:
            return size
    index = Path(f"/sys/devices/system/cpu/cpu0/cache/index{level}/size")
    try:
        text = index.read_text().strip()
    except OSError:
        return 0
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_ticks() -> list:
    """The aggregate ``cpu`` line of ``/proc/stat`` (empty if unreadable)."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_frac(before: list, after: list) -> float:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else 0.0


def host_speed_s() -> float:
    """Best of 5 timings of a fixed pure-Python loop, outside the program.

    Recorded before and after each run so that a reader can tell a
    change in the program from a change in the host: on a shared VM the
    speed of a core moves by tens of percent over minutes without any
    CPU steal (other guests on the same physical core).
    """
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def host_record(seed: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "seed": seed,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "l2_bytes": _cache_size(2),
        "llc_bytes": _cache_size(3),
        "python": sys.version.split()[0],
    }
