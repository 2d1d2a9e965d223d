"""``perf stat``-style repeat-and-average measurement protocol.

The paper samples each (frequency, workload) point 10 times with
``perf`` and averages (Section IV-A). :class:`PerfStat` reproduces the
protocol on a :class:`~repro.hardware.node.SimulatedNode` and returns
:class:`PowerSample` records carrying both the averages and the raw
repeats (needed for the 95 % confidence bands of Figs. 1-4).
:meth:`PerfStat.measure` is the only repeat-and-average loop: the
sweeps and every :mod:`repro.iosim` stage measure through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.hardware.node import SimulatedNode
from repro.hardware.workload import Workload

__all__ = ["PowerSample", "PerfStat"]


@dataclass(frozen=True)
class PowerSample:
    """Averaged measurement at one (cpu, workload, frequency) point."""

    cpu: str
    workload: str
    kind: str
    freq_ghz: float
    energy_j: float
    runtime_s: float
    repeats: int
    energy_samples: Tuple[float, ...] = field(repr=False, default=())
    runtime_samples: Tuple[float, ...] = field(repr=False, default=())

    @property
    def power_w(self) -> float:
        """Average power ``E / t`` (Eqn. 1)."""
        return self.energy_j / self.runtime_s

    @property
    def power_samples(self) -> Tuple[float, ...]:
        """Per-repeat power values."""
        return tuple(
            e / t for e, t in zip(self.energy_samples, self.runtime_samples)
        )


class PerfStat:
    """Runs workloads repeatedly at pinned frequencies and averages."""

    def __init__(self, node: SimulatedNode, repeats: int = 10) -> None:
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        self.node = node
        self.repeats = int(repeats)

    def measure(self, workload: Workload, freq_ghz: float) -> PowerSample:
        """Measure *workload* at *freq_ghz*, averaged over the repeats."""
        snapped = self.node.set_frequency(freq_ghz)
        energies = np.empty(self.repeats)
        runtimes = np.empty(self.repeats)
        for i in range(self.repeats):
            m = self.node.run(workload)
            energies[i] = m.energy_j
            runtimes[i] = m.runtime_s
        return PowerSample(
            cpu=self.node.cpu.arch,
            workload=workload.name,
            kind=workload.kind.value,
            freq_ghz=snapped,
            energy_j=float(energies.mean()),
            runtime_s=float(runtimes.mean()),
            repeats=self.repeats,
            energy_samples=tuple(energies.tolist()),
            runtime_samples=tuple(runtimes.tolist()),
        )

    def stage(self, workload: Workload, freq_ghz: float) -> Tuple[float, float, float]:
        """:meth:`measure` as ``(freq_ghz, runtime_s, energy_j)``, the
        stage triple the I/O simulators and the resilience engine use."""
        sample = self.measure(workload, freq_ghz)
        return sample.freq_ghz, sample.runtime_s, sample.energy_j

    def sweep(self, workload: Workload, frequencies=None) -> Tuple[PowerSample, ...]:
        """Measure *workload* across a frequency grid (default: full DVFS range)."""
        if frequencies is None:
            frequencies = self.node.cpu.available_frequencies()
        return tuple(self.measure(workload, float(f)) for f in frequencies)
