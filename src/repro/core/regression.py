"""Non-linear regression: the ``a·f^b + c`` fitter and model selection.

The paper fits its power curves with the MATLAB Curve Fitting Toolbox,
minimizing SSE over the power-law-plus-constant family (Eqn. 2). The
equivalent here is a robust two-stage fitter: a coarse grid over the
exponent ``b`` (for each candidate ``b``, the optimal ``a`` and ``c``
solve a 2-parameter *linear* least-squares problem in closed form),
followed by a ``scipy.optimize.least_squares`` polish of all three
parameters. The grid stage makes the fit immune to the poor local
minima that plague raw ``curve_fit`` on exponents spanning 1-30 (the
paper's Skylake fits reach b ≈ 23).

:func:`fit_best_model` reproduces the toolbox's model-selection step:
try several families, keep the lowest RMSE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.utils.stats import GoodnessOfFit, goodness_of_fit

__all__ = [
    "PowerLawFit",
    "fit_power_law",
    "FittedModel",
    "fit_best_model",
    "CANDIDATE_MODELS",
]

#: Exponent search bounds; covers the paper's 3.4-23.3 range with room.
_B_MIN, _B_MAX = 0.25, 40.0
_B_GRID_POINTS = 160


def _validate_xy(x, y) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError(f"x and y must be equal length, got {x.size} vs {y.size}")
    if x.size < 4:
        raise ValueError(f"need at least 4 points to fit, got {x.size}")
    if np.any(~np.isfinite(x)) or np.any(~np.isfinite(y)):
        raise ValueError("x and y must be finite")
    if np.any(x <= 0):
        raise ValueError("frequencies must be positive for the power-law family")
    return x, y


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted ``y = a·x^b + c`` with goodness-of-fit statistics."""

    a: float
    b: float
    c: float
    gof: GoodnessOfFit

    def predict(self, x) -> np.ndarray:
        """Model prediction at *x* (scalar or array)."""
        arr = np.asarray(x, dtype=np.float64)
        return self.a * arr**self.b + self.c

    def equation(self) -> str:
        """Human-readable equation string, Table IV/V style."""
        return f"{self.a:.4g}*f^{self.b:.4g} + {self.c:.4g}"


def _linear_solve_for_b(x: np.ndarray, y: np.ndarray, b: float) -> Tuple[float, float, float]:
    """Best (a, c) for a fixed exponent, plus the resulting SSE."""
    basis = np.column_stack([x**b, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    resid = y - basis @ coef
    return float(coef[0]), float(coef[1]), float(resid @ resid)


def fit_power_law(
    x,
    y,
    b_bounds: Tuple[float, float] = (_B_MIN, _B_MAX),
    nonnegative_a: bool = True,
) -> PowerLawFit:
    """Fit ``y = a·x^b + c`` by exponent-grid search + local polish."""
    x, y = _validate_xy(x, y)
    b_lo, b_hi = b_bounds
    if not 0 < b_lo < b_hi:
        raise ValueError(f"invalid exponent bounds {b_bounds}")

    best = None
    for b in np.geomspace(b_lo, b_hi, _B_GRID_POINTS):
        a, c, sse_val = _linear_solve_for_b(x, y, float(b))
        if nonnegative_a and a < 0:
            continue
        if best is None or sse_val < best[3]:
            best = (a, float(b), c, sse_val)
    if best is None:
        # All grid solutions had negative slope; fall back to a flat fit.
        c = float(np.mean(y))
        pred = np.full_like(y, c)
        return PowerLawFit(0.0, 1.0, c, goodness_of_fit(y, pred))

    a0, b0, c0, _ = best

    def residuals(theta):
        a, b, c = theta
        return a * x**b + c - y

    # Deferred so ``import repro`` does not load scipy.optimize.
    from scipy import optimize

    lower = [0.0 if nonnegative_a else -np.inf, b_lo, -np.inf]
    upper = [np.inf, b_hi, np.inf]
    sol = optimize.least_squares(
        residuals,
        x0=[max(a0, 1e-12) if nonnegative_a else a0, b0, c0],
        bounds=(lower, upper),
        method="trf",
        max_nfev=2000,
    )
    a, b, c = (float(v) for v in sol.x)
    fit = PowerLawFit(a, b, c, goodness_of_fit(y, a * x**b + c))
    # Keep the grid solution if the polish diverged.
    grid_fit = PowerLawFit(a0, b0, c0, goodness_of_fit(y, a0 * x**b0 + c0))
    return fit if fit.gof.sse <= grid_fit.gof.sse else grid_fit


@dataclass(frozen=True)
class FittedModel:
    """A fitted candidate from :func:`fit_best_model`."""

    family: str
    params: Tuple[float, ...]
    gof: GoodnessOfFit
    _predict: Callable[[np.ndarray], np.ndarray]

    def predict(self, x) -> np.ndarray:
        return self._predict(np.asarray(x, dtype=np.float64))


def _fit_polynomial(degree: int):
    def fit(x: np.ndarray, y: np.ndarray) -> FittedModel:
        coeffs = np.polyfit(x, y, degree)
        pred = np.polyval(coeffs, x)
        return FittedModel(
            family=f"poly{degree}",
            params=tuple(float(c) for c in coeffs),
            gof=goodness_of_fit(y, pred),
            _predict=lambda xx, c=coeffs: np.polyval(c, xx),
        )

    return fit


def _fit_powerlaw_candidate(x: np.ndarray, y: np.ndarray) -> FittedModel:
    fit = fit_power_law(x, y)
    return FittedModel(
        family="powerlaw",
        params=(fit.a, fit.b, fit.c),
        gof=fit.gof,
        _predict=fit.predict,
    )


def _fit_exponential(x: np.ndarray, y: np.ndarray) -> FittedModel:
    # y = a*exp(b*x) + c, via grid on b + linear solve (same trick).
    best = None
    for b in np.linspace(0.1, 12.0, 80):
        basis = np.column_stack([np.exp(b * x), np.ones_like(x)])
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        resid = y - basis @ coef
        sse_val = float(resid @ resid)
        if best is None or sse_val < best[3]:
            best = (float(coef[0]), float(b), float(coef[1]), sse_val)
    a, b, c, _ = best

    def predict(xx, a=a, b=b, c=c):
        return a * np.exp(b * xx) + c

    return FittedModel(
        family="exponential",
        params=(a, b, c),
        gof=goodness_of_fit(y, predict(x)),
        _predict=predict,
    )


CANDIDATE_MODELS: Dict[str, Callable[[np.ndarray, np.ndarray], FittedModel]] = {
    "powerlaw": _fit_powerlaw_candidate,
    "poly1": _fit_polynomial(1),
    "poly2": _fit_polynomial(2),
    "exponential": _fit_exponential,
}


def fit_best_model(x, y, families: Sequence[str] | None = None) -> FittedModel:
    """Fit several families and keep the lowest-RMSE one.

    This mirrors the paper's use of the Curve Fitting Toolbox, which
    "finds the most optimal model, minimizing SSE and RMSE" — on the
    measured data the winner is the power law of Eqn. 2.
    """
    x, y = _validate_xy(x, y)
    names = list(families) if families is not None else list(CANDIDATE_MODELS)
    unknown = [n for n in names if n not in CANDIDATE_MODELS]
    if unknown:
        raise KeyError(f"unknown model families {unknown}; known: {list(CANDIDATE_MODELS)}")
    fits = [CANDIDATE_MODELS[n](x, y) for n in names]
    return min(fits, key=lambda m: m.gof.rmse)
