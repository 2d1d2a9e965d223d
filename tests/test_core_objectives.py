"""Unit tests for the tuning objective family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objectives import (
    Objective,
    objective_curve,
    optimal_frequency,
    solve,
)
from repro.core.power_model import PowerModel
from repro.core.runtime_model import RuntimeModel
from repro.hardware.cpu import BROADWELL_D1548
from repro.utils.stats import GoodnessOfFit

GOF = GoodnessOfFit(0.0, 0.0, 1.0)
POWER = PowerModel("Broadwell", 0.0064, 5.315, 0.7429, 0.8, 2.0, GOF)
RUNTIME = RuntimeModel("compress", 0.55, 2.0, GOF)


class TestObjective:
    def test_delay_exponents(self):
        assert Objective.POWER.delay_exponent == 0
        assert Objective.ENERGY.delay_exponent == 1
        assert Objective.EDP.delay_exponent == 2
        assert Objective.ED2P.delay_exponent == 3

    def test_parse_by_value(self):
        assert Objective("edp") is Objective.EDP


class TestObjectiveCurve:
    def test_energy_matches_product(self):
        f = np.array([1.0, 1.5, 2.0])
        e = objective_curve(POWER, RUNTIME, f, Objective.ENERGY)
        assert np.allclose(e, POWER.predict(f) * RUNTIME.predict(f))

    def test_power_objective_ignores_runtime(self):
        f = np.array([1.0, 1.5, 2.0])
        p = objective_curve(POWER, RUNTIME, f, Objective.POWER)
        assert np.allclose(p, POWER.predict(f))

    def test_invalid_objective_type(self):
        with pytest.raises(TypeError):
            objective_curve(POWER, RUNTIME, [1.0], "energy")


class TestOptimalFrequency:
    def test_power_objective_picks_fmin(self):
        f = optimal_frequency(POWER, RUNTIME, BROADWELL_D1548, Objective.POWER)
        assert f == pytest.approx(0.8)

    def test_delay_aversion_monotone_in_frequency(self):
        # More delay-averse objectives never pick lower frequencies.
        freqs = [
            optimal_frequency(POWER, RUNTIME, BROADWELL_D1548, obj)
            for obj in (Objective.POWER, Objective.ENERGY, Objective.EDP,
                        Objective.ED2P)
        ]
        assert freqs == sorted(freqs)

    def test_ed2p_near_base_clock(self):
        f = optimal_frequency(POWER, RUNTIME, BROADWELL_D1548, Objective.ED2P)
        assert f >= 0.9 * 2.0

    def test_default_is_energy(self):
        assert optimal_frequency(POWER, RUNTIME, BROADWELL_D1548) == pytest.approx(
            optimal_frequency(POWER, RUNTIME, BROADWELL_D1548, Objective.ENERGY)
        )


# Few distinct values make ties common, so first-point tie-breaking is
# exercised rather than left to chance.
_VALUE = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 10.0))


@st.composite
def _grids(draw):
    n = draw(st.integers(1, 12))
    power = draw(st.lists(_VALUE, min_size=n, max_size=n))
    runtime = draw(st.lists(_VALUE, min_size=n, max_size=n))
    mask = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    return power, runtime, mask


def _masked_argmin(power, runtime, objective, mask):
    ok = np.ones(len(power), bool) if mask is None else np.array(mask, bool)
    if not ok.any():
        return None
    values = np.array(power) * np.array(runtime) ** objective.delay_exponent
    return int(np.argmin(np.where(ok, values, np.inf)))


class TestSolve:
    @settings(max_examples=300, deadline=None)
    @given(_grids(), st.sampled_from(list(Objective)))
    def test_zero_hysteresis_is_the_masked_argmin(self, grid, objective):
        power, runtime, mask = grid
        expected = _masked_argmin(power, runtime, objective, mask)
        assert solve(power, runtime, objective, mask) == expected
        assert (expected is None) == (mask is not None and not any(mask))

    def test_hysteresis_keeps_first_feasible_unless_margin_exceeded(self):
        power = [1.0, 0.99, 0.95]
        runtime = [1.0, 1.0, 1.0]
        assert solve(power, runtime) == 2
        assert solve(power, runtime, hysteresis=0.1) == 0  # 5 % < 10 %
        assert solve(power, runtime, hysteresis=0.01) == 2  # 5 % > 1 %
        mask = [False, True, True]
        assert solve(power, runtime, feasible=mask, hysteresis=0.1) == 1

    def test_margin_must_be_strictly_exceeded(self):
        # 1.0 -> 0.5 is exactly a 50 % improvement: not "more than" 50 %.
        assert solve([1.0, 0.5], [1.0, 1.0], hysteresis=0.5) == 0
        assert solve([1.0, 0.5], [1.0, 1.0], hysteresis=0.4999) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            solve([], [])

    def test_invalid_objective_type(self):
        with pytest.raises(TypeError):
            solve([1.0], [1.0], "energy")
