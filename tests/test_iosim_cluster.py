"""Unit tests for the cluster-scale dumping model."""

import numpy as np
import pytest

from repro.compressors import SZCompressor
from repro.data import load_field
from repro.hardware.cpu import BROADWELL_D1548, SKYLAKE_4114
from repro.iosim.cluster import Cluster
from repro.iosim.nfs import NfsTarget


@pytest.fixture(scope="module")
def sample():
    return load_field("nyx", "velocity_x", scale=32)


def make_cluster(n, **kw):
    kw.setdefault("repeats", 1)
    return Cluster(SKYLAKE_4114, n_nodes=n, **kw)


class TestNfsContention:
    def test_single_client_matches_legacy_bandwidth(self):
        nfs = NfsTarget()
        assert nfs.effective_bandwidth_bps(1) == pytest.approx(
            nfs.effective_bandwidth_bps()
        )

    def test_per_client_bandwidth_shrinks_with_clients(self):
        nfs = NfsTarget()
        bws = [nfs.effective_bandwidth_bps(n) for n in (1, 2, 8, 32)]
        assert bws == sorted(bws, reverse=True)

    def test_cpu_bound_fraction_saturates(self):
        nfs = NfsTarget()
        fracs = [nfs.cpu_bound_fraction(n) for n in (1, 2, 8, 32)]
        assert fracs[0] == 1.0
        assert fracs == sorted(fracs, reverse=True)
        assert fracs[-1] < 0.2

    def test_invalid_client_count(self):
        with pytest.raises(ValueError):
            NfsTarget().effective_bandwidth_bps(0)
        with pytest.raises(ValueError):
            NfsTarget().cpu_bound_fraction(0)


class TestClusterDump:
    def test_one_node_equals_single_dump_scale(self, sample):
        cl = make_cluster(1)
        rep = cl.dump_all(SZCompressor(), sample, 1e-2, int(16e9))
        assert rep.nodes == 1
        assert rep.cpu_bound_fraction == 1.0
        assert len(rep.per_node) == 1

    def test_total_energy_sums_nodes(self, sample):
        cl = make_cluster(4)
        rep = cl.dump_all(SZCompressor(), sample, 1e-2, int(16e9))
        assert rep.total_energy_j == pytest.approx(
            sum(r.total_energy_j for r in rep.per_node)
        )

    def test_energy_roughly_linear_in_nodes_when_cpu_bound(self, sample):
        # With a fat server there is no contention: energy ∝ N.
        nfs = NfsTarget(network_gbps=1000.0, disk_mbps=1e6)
        small = Cluster(SKYLAKE_4114, 2, nfs=nfs, repeats=1).dump_all(
            SZCompressor(), sample, 1e-2, int(16e9))
        large = Cluster(SKYLAKE_4114, 8, nfs=nfs, repeats=1).dump_all(
            SZCompressor(), sample, 1e-2, int(16e9))
        assert large.total_energy_j == pytest.approx(
            4 * small.total_energy_j, rel=0.05
        )

    def test_contention_stretches_write_phase(self, sample):
        t1 = make_cluster(1).dump_all(SZCompressor(), sample, 1e-2, int(16e9))
        t16 = make_cluster(16).dump_all(SZCompressor(), sample, 1e-2, int(16e9))
        w1 = max(r.write.runtime_s for r in t1.per_node)
        w16 = max(r.write.runtime_s for r in t16.per_node)
        assert w16 > 2 * w1

    def test_aggregate_bandwidth_capped_by_server(self, sample):
        nfs = NfsTarget()
        rep = make_cluster(32, nfs=nfs).dump_all(
            SZCompressor(), sample, 1e-2, int(16e9))
        cap = nfs.shared_capacity_mbps * 1e6
        assert rep.aggregate_write_bandwidth_bps < cap * 1.1

    def test_tuning_write_is_free_under_saturation(self, sample):
        # Emergent behaviour: when network-bound, downclocking the
        # write stage costs almost no runtime but still saves power.
        cl = Cluster(SKYLAKE_4114, 16, repeats=5, seed=3)
        base = cl.dump_all(SZCompressor(), sample, 1e-2, int(16e9))
        tuned = cl.dump_all(SZCompressor(), sample, 1e-2, int(16e9),
                            write_freq_ghz=1.85)
        w_base = max(r.write.runtime_s for r in base.per_node)
        w_tuned = max(r.write.runtime_s for r in tuned.per_node)
        assert (w_tuned / w_base - 1.0) < 0.03  # ~free in runtime
        e_base = sum(r.write.energy_j for r in base.per_node)
        e_tuned = sum(r.write.energy_j for r in tuned.per_node)
        assert e_tuned < e_base  # still saves energy

    def test_savings_positive_across_scales(self, sample):
        for n in (1, 4, 16):
            cl = Cluster(BROADWELL_D1548, n, repeats=5, seed=n)
            base = cl.dump_all(SZCompressor(), sample, 1e-1, int(16e9))
            tuned = cl.dump_all(SZCompressor(), sample, 1e-1, int(16e9),
                                compress_freq_ghz=1.75, write_freq_ghz=1.7)
            assert tuned.total_energy_j < base.total_energy_j, f"n={n}"

    def test_validation(self):
        with pytest.raises(ValueError):
            Cluster(SKYLAKE_4114, 0)
        with pytest.raises(ValueError):
            Cluster(SKYLAKE_4114, 2, repeats=0)
        cl = make_cluster(2)
        with pytest.raises(ValueError):
            cl.dump_all(SZCompressor(), np.ones(16, dtype=np.float32), 1e-2, 0)

    @pytest.mark.parametrize("budget", [None, 400.0])
    @pytest.mark.parametrize(
        "kw, match",
        [
            ({"policy": "nonsense"}, "unknown allocation policy 'nonsense'"),
            ({"hysteresis": -5}, r"hysteresis must lie in \[0.0, 1.0\]"),
            ({"hysteresis": 1.5}, r"hysteresis must lie in \[0.0, 1.0\]"),
            ({"nfs_reserve_w": -1.0}, "nfs_reserve_w must be a finite non-negative"),
            ({"work_weights": [1.0, 2.0, 3.0]},
             "work_weights must have one entry per node, got 3 for 2 nodes"),
        ],
    )
    def test_cap_settings_checked_with_or_without_budget(self, kw, match, budget):
        with pytest.raises(ValueError, match=match):
            make_cluster(2, power_budget_w=budget, **kw)
