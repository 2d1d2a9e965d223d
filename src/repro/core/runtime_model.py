"""Leading-loads runtime model fitted from scaled runtime measurements.

The scaled runtime curves of Figs. 2 and 4 follow

    t(f) / t(f_max) = (1 - s) + s * f_max / f

with a single compute-fraction parameter ``s``. Substituting
``u = f_max/f - 1`` turns the fit into one-parameter linear least
squares through the origin: ``r - 1 = s·u``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.samples import SampleSet
from repro.hardware.workload import leading_loads
from repro.utils.stats import GoodnessOfFit, goodness_of_fit

__all__ = ["RuntimeModel", "fit_runtime_model"]


@dataclass(frozen=True)
class RuntimeModel:
    """Scaled runtime as a function of frequency."""

    name: str
    sensitivity: float
    fmax_ghz: float
    gof: GoodnessOfFit

    def predict(self, freq_ghz) -> np.ndarray:
        """Scaled runtime (multiples of the max-clock runtime)."""
        f = np.asarray(freq_ghz, dtype=np.float64)
        if np.any(f <= 0):
            raise ValueError("frequencies must be positive")
        return leading_loads(self.sensitivity, self.fmax_ghz, f)

    def slowdown_at(self, freq_ghz: float) -> float:
        """Fractional runtime increase vs. the max clock."""
        return float(self.predict(freq_ghz)) - 1.0


def fit_runtime_model(
    name: str, samples: SampleSet, value_key: str = "scaled_runtime_s"
) -> RuntimeModel:
    """Fit the single-parameter model from scaled runtime samples."""
    f = samples.column("freq_ghz").astype(np.float64)
    r = samples.column(value_key).astype(np.float64)
    if f.size < 2:
        raise ValueError(f"need at least 2 samples to fit a runtime model, got {f.size}")
    if np.any(f <= 0):
        raise ValueError("frequencies must be positive")
    fmax = float(f.max())
    u = fmax / f - 1.0
    denom = float(u @ u)
    s = float(u @ (r - 1.0)) / denom if denom > 0 else 0.0
    s = float(np.clip(s, 0.0, 1.5))
    pred = leading_loads(s, fmax, f)
    return RuntimeModel(
        name=name, sensitivity=s, fmax_ghz=fmax, gof=goodness_of_fit(r, pred)
    )
