"""Multi-core frequency/width co-tuning (extension of the paper).

The paper pins one core and tunes its frequency. On a real socket the
interesting question is two-dimensional: how many cores, at what
frequency? Static power (the large 'c' the paper fits) is shared across
cores, so spreading codec work "wide and slow" amortizes the floor —
usually beating both the paper's single-core tuning and naive
race-to-idle, until Amdahl's serial fraction or the package TDP bites.

:func:`sweep_configurations` evaluates every (cores, frequency) point
with the noise-free ground truth; :func:`optimal_configuration` returns
the best under an optional makespan cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.objectives import solve
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import Workload

__all__ = ["CoreFreqPoint", "sweep_configurations", "optimal_configuration", "pareto_front"]


@dataclass(frozen=True)
class CoreFreqPoint:
    """Outcome of running a workload at one (cores, frequency) point."""

    cores: int
    freq_ghz: float
    runtime_s: float
    power_w: float

    @property
    def energy_j(self) -> float:
        return self.power_w * self.runtime_s


def sweep_configurations(
    node: SimulatedNode,
    workload: Workload,
    max_cores: Optional[int] = None,
) -> List[CoreFreqPoint]:
    """Noise-free (cores × frequency) grid for *workload* on *node*."""
    cpu = node.cpu
    max_cores = cpu.cores if max_cores is None else max_cores
    if not 1 <= max_cores <= cpu.cores:
        raise ValueError(f"max_cores must lie in [1, {cpu.cores}], got {max_cores}")
    points = []
    for cores in range(1, max_cores + 1):
        for f in cpu.available_frequencies():
            f = float(f)
            points.append(
                CoreFreqPoint(
                    cores=cores,
                    freq_ghz=f,
                    runtime_s=node.true_runtime_s(workload, f, cores=cores),
                    power_w=node.true_power_w(workload, f, cores=cores),
                )
            )
    return points


def optimal_configuration(
    node: SimulatedNode,
    workload: Workload,
    max_cores: Optional[int] = None,
    max_runtime_s: Optional[float] = None,
) -> CoreFreqPoint:
    """Energy-minimal (cores, frequency) point, optionally makespan-capped.

    Raises ``ValueError`` if no configuration meets *max_runtime_s*.
    """
    points = sweep_configurations(node, workload, max_cores)
    runtime = np.array([p.runtime_s for p in points])
    feasible = None if max_runtime_s is None else runtime <= max_runtime_s
    index = solve([p.power_w for p in points], runtime, feasible=feasible)
    if index is None:
        raise ValueError(
            f"no (cores, frequency) configuration finishes within "
            f"{max_runtime_s} s"
        )
    return points[index]


def pareto_front(points: List[CoreFreqPoint]) -> List[CoreFreqPoint]:
    """Runtime/energy Pareto-optimal subset, sorted by runtime."""
    ordered = sorted(points, key=lambda p: (p.runtime_s, p.energy_j))
    front: List[CoreFreqPoint] = []
    best_energy = np.inf
    for p in ordered:
        if p.energy_j < best_energy - 1e-12:
            front.append(p)
            best_energy = p.energy_j
    return front
