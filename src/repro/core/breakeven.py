"""Compress-or-not break-even analysis.

The paper's introduction flags the caveat: "there are cases where the
compression itself can outweigh the runtime for reading and writing the
compressed data". This module makes that boundary precise for the
simulated platform: given a codec's throughput and ratio, at what
effective write bandwidth (equivalently, at how many contending
clients) does compress-then-write start beating a raw write — in time,
and in energy?

With compression throughput ``v_c``, ratio ``r`` and write bandwidth
``v_w`` (all bytes/s), compress-then-write wins on *time* iff

    1/v_c + 1/(r·v_w)  <  1/v_w      ⇔      v_w < v_c · (1 − 1/r)

and on *energy* iff the same inequality holds with each term weighted
by its stage power. Fast links favour raw writes; contention (many
clients sharing an NFS) pushes per-client bandwidth below the threshold
and flips the verdict — the crossover the cluster study exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.hardware.cpu import CpuSpec
from repro.hardware.powercurves import CalibratedPowerCurve, PowerCurve
from repro.hardware.workload import (
    REFERENCE_THROUGHPUT_MBPS,
    WorkloadKind,
    cross_cpu_factor,
    error_bound_work_factor,
)
from repro.iosim.nfs import NfsTarget
from repro.utils.validation import check_positive

__all__ = [
    "StrategyOutcome",
    "compare_strategies",
    "breakeven_bandwidth_bps",
    "breakeven_clients",
]


@dataclass(frozen=True)
class StrategyOutcome:
    """Deterministic time/energy of one dumping strategy."""

    strategy: str
    time_s: float
    energy_j: float


def _compression_rate_bps(kind: WorkloadKind, error_bound: float, cpu: CpuSpec) -> float:
    """Single-core compression throughput at *cpu*'s base clock, B/s."""
    base = REFERENCE_THROUGHPUT_MBPS[kind] * 1e6 / error_bound_work_factor(error_bound)
    # Cross-CPU conversion as in Workload.runtime_s at base clock,
    # with the codec sensitivity ~0.5 split.
    return base / cross_cpu_factor(0.5, cpu)


def compare_strategies(
    cpu: CpuSpec,
    kind: WorkloadKind,
    ratio: float,
    error_bound: float,
    nbytes: int,
    nfs: Optional[NfsTarget] = None,
    concurrent_clients: int = 1,
    power_curve: Optional[PowerCurve] = None,
) -> Dict[str, StrategyOutcome]:
    """Raw write vs compress-then-write, noise-free, at base clock."""
    check_positive(ratio, "ratio")
    check_positive(nbytes, "nbytes")
    if not kind.is_compression:
        raise ValueError(f"{kind} is not a compression workload kind")
    nfs = nfs if nfs is not None else NfsTarget()
    curve = power_curve if power_curve is not None else CalibratedPowerCurve()

    v_w = nfs.effective_bandwidth_bps(concurrent_clients)
    v_c = _compression_rate_bps(kind, error_bound, cpu)
    p_w = curve.power_watts(cpu, cpu.fmax_ghz, WorkloadKind.WRITE)
    p_c = curve.power_watts(cpu, cpu.fmax_ghz, kind)

    t_raw = nbytes / v_w
    raw = StrategyOutcome("raw-write", t_raw, t_raw * p_w)

    t_c = nbytes / v_c
    t_cw = nbytes / (ratio * v_w)
    compressed = StrategyOutcome(
        "compress-then-write", t_c + t_cw, t_c * p_c + t_cw * p_w
    )
    return {"raw": raw, "compressed": compressed}


def breakeven_bandwidth_bps(
    cpu: CpuSpec,
    kind: WorkloadKind,
    ratio: float,
    error_bound: float,
    criterion: str = "time",
    power_curve: Optional[PowerCurve] = None,
) -> float:
    """Write bandwidth below which compress-then-write wins.

    ``criterion="time"`` solves ``v_w < v_c (1 - 1/r)``;
    ``criterion="energy"`` weights each stage by its power.
    """
    check_positive(ratio, "ratio")
    if ratio <= 1.0:
        return 0.0  # compression that doesn't shrink never wins
    v_c = _compression_rate_bps(kind, error_bound, cpu)
    if criterion == "time":
        return v_c * (1.0 - 1.0 / ratio)
    if criterion == "energy":
        curve = power_curve if power_curve is not None else CalibratedPowerCurve()
        p_w = curve.power_watts(cpu, cpu.fmax_ghz, WorkloadKind.WRITE)
        p_c = curve.power_watts(cpu, cpu.fmax_ghz, kind)
        # E_comp < E_raw ⇔ p_c/v_c < p_w (1 - 1/r) / v_w ⇔ v_w < ...
        return v_c * (p_w / p_c) * (1.0 - 1.0 / ratio)
    raise ValueError(f"criterion must be 'time' or 'energy', got {criterion!r}")


def breakeven_clients(
    cpu: CpuSpec,
    kind: WorkloadKind,
    ratio: float,
    error_bound: float,
    nfs: Optional[NfsTarget] = None,
    criterion: str = "time",
    max_clients: int = 4096,
) -> Optional[int]:
    """Smallest client count at which compression starts winning.

    Returns ``None`` if even *max_clients* contenders leave raw writes
    ahead (e.g. a ratio barely above 1 against a fat link).
    """
    nfs = nfs if nfs is not None else NfsTarget()
    threshold = breakeven_bandwidth_bps(cpu, kind, ratio, error_bound, criterion)
    for n in range(1, max_clients + 1):
        if nfs.effective_bandwidth_bps(n) < threshold:
            return n
    return None
