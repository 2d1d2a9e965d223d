"""Statistics primitives: goodness-of-fit metrics and confidence intervals.

The paper evaluates its regressions with SSE, RMSE and R² (Tables IV/V)
and shades 95 % confidence intervals around the characteristic curves
(Figs. 1-4). These helpers implement exactly those quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "sse",
    "rmse",
    "r_squared",
    "GoodnessOfFit",
    "goodness_of_fit",
    "mean_confidence_interval",
    "ConfidenceBand",
    "confidence_band",
]


def _paired(observed, predicted):
    obs = np.asarray(observed, dtype=np.float64).ravel()
    pred = np.asarray(predicted, dtype=np.float64).ravel()
    if obs.size != pred.size:
        raise ValueError(
            f"observed and predicted must have equal length, got {obs.size} vs {pred.size}"
        )
    if obs.size == 0:
        raise ValueError("observed/predicted must be non-empty")
    return obs, pred


def sse(observed, predicted) -> float:
    """Sum of squared errors between observations and model predictions."""
    obs, pred = _paired(observed, predicted)
    return float(np.sum((obs - pred) ** 2))


def rmse(observed, predicted) -> float:
    """Root-mean-squared error between observations and model predictions."""
    obs, pred = _paired(observed, predicted)
    return float(np.sqrt(np.mean((obs - pred) ** 2)))


def r_squared(observed, predicted) -> float:
    """Coefficient of determination ``1 - SSE/SST``.

    As the paper notes (citing Cameron & Windmeijer 1997), R² is not a
    reliable metric for non-linear models, but it still reports it; so do
    we. For constant observations (SST = 0) the convention here is 1.0
    when the fit is exact and 0.0 otherwise.
    """
    obs, pred = _paired(observed, predicted)
    sst = float(np.sum((obs - np.mean(obs)) ** 2))
    residual = float(np.sum((obs - pred) ** 2))
    if sst == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / sst


@dataclass(frozen=True)
class GoodnessOfFit:
    """SSE / RMSE / R² bundle, as reported in Tables IV and V."""

    sse: float
    rmse: float
    r2: float

    def as_row(self) -> str:
        return f"SSE={self.sse:.4g}  RMSE={self.rmse:.4g}  R2={self.r2:.4f}"


def goodness_of_fit(observed, predicted) -> GoodnessOfFit:
    """Compute the full GF bundle for a fitted model."""
    return GoodnessOfFit(
        sse=sse(observed, predicted),
        rmse=rmse(observed, predicted),
        r2=r_squared(observed, predicted),
    )


def mean_confidence_interval(samples, confidence: float = 0.95):
    """Mean and half-width of the Student-t confidence interval.

    Returns ``(mean, half_width)``. A single sample yields half-width 0.
    """
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    mean = float(np.mean(arr))
    if arr.size == 1:
        return mean, 0.0
    # Imported here: scipy.stats costs ~0.5 s and nothing else in the
    # package needs it, so ``import repro`` stays SciPy-free.
    from scipy import stats

    sem = float(np.std(arr, ddof=1) / np.sqrt(arr.size))
    tcrit = float(stats.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1))
    return mean, sem * tcrit


@dataclass(frozen=True)
class ConfidenceBand:
    """A mean curve with symmetric confidence half-widths (Figs. 1-4 shading)."""

    x: np.ndarray
    mean: np.ndarray
    half_width: np.ndarray
    confidence: float = 0.95

    def __post_init__(self):
        for name in ("x", "mean", "half_width"):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=np.float64)
            )
        if not (self.x.shape == self.mean.shape == self.half_width.shape):
            raise ValueError("x, mean and half_width must share a shape")

    @property
    def lower(self) -> np.ndarray:
        return self.mean - self.half_width

    @property
    def upper(self) -> np.ndarray:
        return self.mean + self.half_width


def confidence_band(x, groups, confidence: float = 0.95) -> ConfidenceBand:
    """Build a :class:`ConfidenceBand` from repeated measurements.

    Parameters
    ----------
    x:
        1-D abscissa (e.g. frequencies), length ``n``.
    groups:
        2-D array ``(n, reps)`` of repeated observations per abscissa, or a
        sequence of per-``x`` sample vectors (possibly ragged).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    means = np.empty_like(x)
    halfs = np.empty_like(x)
    if len(groups) != x.size:
        raise ValueError(
            f"groups must have one sample vector per x value "
            f"({x.size}), got {len(groups)}"
        )
    for i, g in enumerate(groups):
        means[i], halfs[i] = mean_confidence_interval(g, confidence)
    return ConfidenceBand(x=x, mean=means, half_width=halfs, confidence=confidence)
