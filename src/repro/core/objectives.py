"""Tuning objectives beyond plain energy.

The paper minimizes energy subject to an implicit runtime tolerance.
Real deployments weigh time differently, so the optimizer also supports
the standard objective family:

* ``POWER`` — minimize average power (the paper's Fig. 1 minimum; ends
  up at f_min, useful only under hard power caps).
* ``ENERGY`` — minimize ``P(f)·t(f)`` (the paper's implicit objective).
* ``EDP`` — energy-delay product ``P(f)·t(f)²``, the common
  throughput-aware compromise.
* ``ED2P`` — energy-delay² product ``P(f)·t(f)³``, strongly
  delay-averse (leans toward f_max).
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.core.power_model import PowerModel
from repro.core.runtime_model import RuntimeModel
from repro.hardware.cpu import CpuSpec

__all__ = ["Objective", "objective_curve", "solve", "optimal_frequency"]


class Objective(enum.Enum):
    """What to minimize when picking a pinned frequency."""

    POWER = "power"
    ENERGY = "energy"
    EDP = "edp"
    ED2P = "ed2p"

    @property
    def delay_exponent(self) -> int:
        """Power of the runtime factor in the objective."""
        return {
            Objective.POWER: 0,
            Objective.ENERGY: 1,
            Objective.EDP: 2,
            Objective.ED2P: 3,
        }[self]


def _delay_exponent(objective) -> int:
    if not isinstance(objective, Objective):
        raise TypeError(f"objective must be an Objective, got {objective!r}")
    return objective.delay_exponent


def objective_curve(
    power_model: PowerModel,
    runtime_model: RuntimeModel,
    frequencies,
    objective: Objective = Objective.ENERGY,
) -> np.ndarray:
    """Scaled objective values ``P(f) · t(f)^k`` over *frequencies*."""
    k = _delay_exponent(objective)
    f = np.asarray(frequencies, dtype=np.float64)
    return power_model.predict(f) * runtime_model.predict(f) ** k


def solve(
    power,
    runtime,
    objective: Objective = Objective.ENERGY,
    feasible=None,
    hysteresis: float = 0.0,
) -> Optional[int]:
    """Index of the point minimizing ``power · runtime^k``: the one
    search over a DVFS grid or configuration list in the package.

    Points come in ascending preference order (for a DVFS grid: lowest
    frequency first) and ties go to the earlier point. *feasible* is an
    optional boolean mask; ``None`` is returned when no point is
    feasible. With *hysteresis* > 0 the first feasible point is kept
    unless the minimum beats it by more than that relative margin; at
    0 this is exactly the masked argmin.
    """
    power = np.asarray(power, dtype=np.float64)
    runtime = np.asarray(runtime, dtype=np.float64)
    if power.size == 0:
        raise ValueError("grid must be non-empty")
    values = power * runtime ** _delay_exponent(objective)
    ok = np.ones(values.size, dtype=bool) if feasible is None else feasible
    candidates = np.flatnonzero(ok)
    if candidates.size == 0:
        return None
    first = candidates[0]
    best = candidates[np.argmin(values[candidates])]
    if hysteresis and values[first] - values[best] <= hysteresis * values[first]:
        return int(first)
    return int(best)


def optimal_frequency(
    power_model: PowerModel,
    runtime_model: RuntimeModel,
    cpu: CpuSpec,
    objective: Objective = Objective.ENERGY,
    max_slowdown: Optional[float] = None,
) -> float:
    """DVFS-grid frequency minimizing the chosen objective.

    *max_slowdown* caps the modeled runtime increase (``0.10``: at most
    10 % slower than max clock); ``ValueError`` if no frequency meets it.
    """
    grid = cpu.available_frequencies()
    runtime = runtime_model.predict(grid)
    feasible = None if max_slowdown is None else runtime <= 1.0 + max_slowdown
    index = solve(power_model.predict(grid), runtime, objective, feasible)
    if index is None:
        raise ValueError(
            f"no frequency satisfies max_slowdown={max_slowdown}; "
            f"minimum modeled slowdown is {runtime.min() - 1:.3f}"
        )
    return float(grid[index])
