"""Unit tests for the impact converter and the tuning service."""

import pytest

from repro.core.impact import GridProfile, US_AVERAGE_GRID, impact_of
from repro.core.objectives import Objective
from repro.core.persistence import ModelBundle
from repro.core.power_model import PowerModel
from repro.core.runtime_model import RuntimeModel
from repro.core.service import TuningService
from repro.core.tuning import PAPER_POLICY
from repro.utils.stats import GoodnessOfFit

GOF = GoodnessOfFit(0.0, 0.0, 1.0)


class TestImpact:
    def test_kwh_conversion(self):
        rep = impact_of(3.6e6, GridProfile(gco2e_per_kwh=400, usd_per_kwh=0.1, pue=1.0))
        assert rep.kwh == pytest.approx(1.0)
        assert rep.gco2e == pytest.approx(400.0)
        assert rep.usd == pytest.approx(0.10)

    def test_pue_multiplies_facility_energy(self):
        rep = impact_of(1e6, GridProfile(100, 0.1, pue=1.5))
        assert rep.facility_energy_j == pytest.approx(1.5e6)

    def test_paper_headline_at_fleet_scale(self):
        # 6.5 kJ per dump x 24 dumps/day x 365 days x 1000 nodes.
        per_dump = impact_of(6.5e3, US_AVERAGE_GRID)
        fleet = per_dump.scaled(24 * 365 * 1000)
        assert fleet.kwh > 20_000  # a real operations number
        assert fleet.usd > 2_000

    def test_zero_energy(self):
        rep = impact_of(0.0)
        assert rep.kwh == 0.0 and rep.gco2e == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            impact_of(-1.0)
        with pytest.raises(ValueError):
            GridProfile(100, 0.1, pue=0.9)
        with pytest.raises(ValueError):
            impact_of(1.0).scaled(-1.0)


def make_bundle():
    return ModelBundle(
        compression_power={
            "Broadwell": PowerModel("Broadwell", 0.0064, 5.315, 0.7429, 0.8, 2.0, GOF),
            "Skylake": PowerModel("Skylake", 2.235e-9, 23.31, 0.7941, 0.8, 2.2, GOF),
        },
        transit_power={
            "Broadwell": PowerModel("Broadwell", 0.0261, 3.395, 0.7097, 0.8, 2.0, GOF),
            "Skylake": PowerModel("Skylake", 9.095e-9, 20.9, 0.888, 0.8, 2.2, GOF),
        },
        compression_runtime={
            "broadwell": RuntimeModel("c-bw", 0.55, 2.0, GOF),
            "skylake": RuntimeModel("c-sky", 0.50, 2.2, GOF),
        },
        transit_runtime={
            "broadwell": RuntimeModel("w-bw", 0.75, 2.0, GOF),
            "skylake": RuntimeModel("w-sky", 0.30, 2.2, GOF),
        },
        metadata={},
    )


class TestTuningService:
    @pytest.fixture
    def service(self):
        return TuningService(make_bundle())

    def test_architectures(self, service):
        assert service.architectures() == ("broadwell", "skylake")

    def test_energy_decision_interior(self, service):
        d = service.decide("broadwell", "compress")
        assert 0.8 < d.freq_ghz < 2.0
        assert d.predicted_energy_saving > 0
        assert d.objective == "energy"

    def test_policy_override(self, service):
        d = service.decide("broadwell", "compress", policy=PAPER_POLICY)
        assert d.freq_ghz == pytest.approx(1.75)
        assert d.objective == "eqn3"

    def test_objective_changes_choice(self, service):
        energy = service.decide("broadwell", "compress", Objective.ENERGY)
        ed2p = service.decide("broadwell", "compress", Objective.ED2P)
        assert ed2p.freq_ghz >= energy.freq_ghz

    def test_max_slowdown_cap(self, service):
        d = service.decide("broadwell", "compress", max_slowdown=0.03)
        assert d.predicted_slowdown <= 0.03 + 1e-9

    def test_impossible_cap(self, service):
        with pytest.raises(ValueError, match="max_slowdown"):
            service.decide("broadwell", "compress", max_slowdown=-0.5)

    def test_cap_with_fixed_policy_rejected(self, service):
        # A fixed factor has no choice for the cap to constrain; the
        # Python API refuses it instead of silently ignoring it.
        with pytest.raises(
            ValueError,
            match=r"^max_slowdown only applies to policy 'optimal' "
            r"\(eqn3 is a fixed factor\)$",
        ):
            service.decide(
                "broadwell", "compress", policy=PAPER_POLICY, max_slowdown=0.01
            )

    def test_unknown_arch(self, service):
        with pytest.raises(KeyError, match="unknown CPU"):
            service.decide("epyc", "compress")

    def test_known_cpu_missing_from_bundle(self, service):
        # cascadelake is a registered CPU but this bundle has no models.
        with pytest.raises(KeyError, match="bundle has no"):
            service.decide("cascadelake", "compress")

    def test_invalid_stage(self, service):
        with pytest.raises(ValueError, match="stage"):
            service.decide("broadwell", "restore")

    def test_decision_table(self, service):
        rows = service.decision_table()
        assert len(rows) == 4
        assert {(r["arch"], r["stage"]) for r in rows} == {
            ("broadwell", "compress"), ("broadwell", "write"),
            ("skylake", "compress"), ("skylake", "write"),
        }

    def test_from_file(self, tmp_path):
        path = tmp_path / "m.json"
        make_bundle().save(path)
        svc = TuningService.from_file(path)
        assert svc.architectures() == ("broadwell", "skylake")
