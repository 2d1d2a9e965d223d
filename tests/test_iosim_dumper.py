"""Unit tests for the compress-then-write dumper."""

import numpy as np
import pytest

from repro.cache import ResultCache, encode_value, use_cache
from repro.compressors import SZCompressor, ZFPCompressor
from repro.data import load_field
from repro.hardware.cpu import BROADWELL_D1548
from repro.hardware.node import SimulatedNode
from repro.iosim.dumper import DataDumper
from repro.observability import Tracer, get_registry, use_tracer
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.workflow import campaign as campaign_module
from repro.workflow.campaign import CheckpointCampaign, run_campaign


@pytest.fixture(scope="module")
def sample():
    return load_field("nyx", "velocity_x", scale=32)


@pytest.fixture
def dumper():
    node = SimulatedNode(BROADWELL_D1548, power_noise=0.0, runtime_noise=0.0, seed=0)
    return DataDumper(node, repeats=1)


class TestDump:
    def test_report_structure(self, dumper, sample):
        rep = dumper.dump(SZCompressor(), sample, 1e-2, int(100e9))
        assert rep.compress.stage == "compress"
        assert rep.write.stage == "write"
        assert rep.compression_ratio > 1.0
        assert rep.total_energy_j == pytest.approx(
            rep.compress.energy_j + rep.write.energy_j
        )
        assert rep.total_runtime_s == pytest.approx(
            rep.compress.runtime_s + rep.write.runtime_s
        )

    def test_write_bytes_reduced_by_ratio(self, dumper, sample):
        rep = dumper.dump(SZCompressor(), sample, 1e-1, int(100e9))
        assert rep.write.bytes_processed == pytest.approx(
            100e9 / rep.compression_ratio, rel=0.01
        )

    def test_default_frequencies_are_base_clock(self, dumper, sample):
        rep = dumper.dump(SZCompressor(), sample, 1e-2, int(10e9))
        assert rep.compress.freq_ghz == 2.0
        assert rep.write.freq_ghz == 2.0

    def test_per_stage_frequencies_applied(self, dumper, sample):
        rep = dumper.dump(
            SZCompressor(), sample, 1e-2, int(10e9),
            compress_freq_ghz=1.75, write_freq_ghz=1.7,
        )
        assert rep.compress.freq_ghz == pytest.approx(1.75)
        assert rep.write.freq_ghz == pytest.approx(1.7)

    def test_tuning_reduces_energy_noise_free(self, dumper, sample):
        base = dumper.dump(SZCompressor(), sample, 1e-2, int(100e9))
        tuned = dumper.dump(
            SZCompressor(), sample, 1e-2, int(100e9),
            compress_freq_ghz=1.75, write_freq_ghz=1.7,
        )
        assert tuned.total_energy_j < base.total_energy_j
        assert tuned.total_runtime_s > base.total_runtime_s

    def test_finer_bound_more_total_energy(self, dumper, sample):
        coarse = dumper.dump(SZCompressor(), sample, 1e-1, int(100e9))
        fine = dumper.dump(SZCompressor(), sample, 1e-4, int(100e9))
        assert fine.total_energy_j > coarse.total_energy_j
        assert fine.compression_ratio < coarse.compression_ratio

    def test_zfp_supported(self, dumper, sample):
        rep = dumper.dump(ZFPCompressor(), sample, 1e-2, int(10e9))
        assert rep.compression_ratio > 1.0

    def test_energy_scales_with_target(self, dumper, sample):
        small = dumper.dump(SZCompressor(), sample, 1e-2, int(50e9))
        large = dumper.dump(SZCompressor(), sample, 1e-2, int(200e9))
        assert large.total_energy_j == pytest.approx(4 * small.total_energy_j, rel=0.01)

    def test_invalid_target(self, dumper, sample):
        with pytest.raises(ValueError):
            dumper.dump(SZCompressor(), sample, 1e-2, 0)

    def test_invalid_repeats(self):
        node = SimulatedNode(BROADWELL_D1548)
        with pytest.raises(ValueError):
            DataDumper(node, repeats=0)


class TestChunkedDump:
    def _dumper(self, **kwargs):
        node = SimulatedNode(
            BROADWELL_D1548, power_noise=0.0, runtime_noise=0.0, seed=0
        )
        return DataDumper(node, repeats=1, **kwargs)

    def test_monolithic_report_has_no_parallel_stats(self, sample):
        rep = self._dumper().dump(SZCompressor(), sample, 1e-2, int(10e9))
        assert rep.parallel is None

    def test_chunked_dump_records_slab_stats(self, sample):
        dumper = self._dumper(chunk_bytes=1 << 12, executor="serial")
        rep = dumper.dump(SZCompressor(), sample, 1e-2, int(10e9))
        assert rep.parallel is not None
        assert rep.parallel.executor == "serial"
        assert rep.parallel.n_tasks > 1
        assert rep.parallel.bytes_in == sample.nbytes
        assert rep.compression_ratio > 1.0

    def test_chunked_energy_matches_monolithic_closely(self, sample):
        # Slab headers shave a little off the ratio but the energy
        # pipeline must stay consistent with the monolithic path.
        mono = self._dumper().dump(SZCompressor(), sample, 1e-2, int(10e9))
        chunked = self._dumper(chunk_bytes=1 << 14, executor="thread",
                               workers=2).dump(SZCompressor(), sample, 1e-2,
                                               int(10e9))
        assert chunked.compression_ratio == pytest.approx(
            mono.compression_ratio, rel=0.25
        )
        assert chunked.compress.energy_j == pytest.approx(
            mono.compress.energy_j, rel=0.05
        )

    def test_invalid_chunk_bytes(self):
        node = SimulatedNode(BROADWELL_D1548)
        with pytest.raises(ValueError):
            DataDumper(node, chunk_bytes=0)


def _compress_calls(codec="sz"):
    return get_registry().counter(
        "repro_compress_calls_total", {"codec": codec},
        help="Compressor.compress invocations",
    ).value


class _FreshDumperPerSnapshot:
    """Stands in for DataDumper inside run_campaign: every dump call
    goes through a brand-new dumper, so no ratio is ever reused."""

    def __init__(self, *args, **kwargs):
        self._args, self._kwargs = args, kwargs

    def dump(self, *args, **kwargs):
        return DataDumper(*self._args, **self._kwargs).dump(*args, **kwargs)


FAULTY = FaultPlan(specs=(
    FaultSpec(FaultKind.NFS_HARD_FAILURE, probability=1.0, snapshots=(0,)),
    FaultSpec(FaultKind.NFS_TRANSIENT_ERROR, probability=1.0, snapshots=(1,),
              attempts=1, severity=0.5),
    FaultSpec(FaultKind.DVFS_THROTTLE, probability=1.0, snapshots=(2,),
              severity=0.6),
), seed=7)


class TestRatioReuse:
    CAMPAIGN = CheckpointCampaign(
        snapshot_bytes=int(16e9), n_snapshots=12, compute_interval_s=600.0
    )

    def _campaign(self, sample, fault_plan=None):
        node = SimulatedNode(BROADWELL_D1548, seed=3)
        return run_campaign(
            node, SZCompressor(), sample, 1e-2, self.CAMPAIGN,
            repeats=1, fault_plan=fault_plan,
        )

    def test_campaign_measures_the_ratio_once(self, sample):
        # Reuse is the dumper's own, so it holds with the cache off.
        with use_cache(ResultCache(enabled=False)):
            before = _compress_calls()
            report = self._campaign(sample)
        assert _compress_calls() == before + 1
        assert len(report.snapshots) == 12

    def test_in_place_mutation_recomputes(self, dumper, sample):
        field = sample.copy()
        first = dumper.dump(SZCompressor(), field, 1e-2, int(10e9))
        field *= 3.0
        before = _compress_calls()
        second = dumper.dump(SZCompressor(), field, 1e-2, int(10e9))
        assert _compress_calls() == before + 1
        assert second.compression_ratio != first.compression_ratio

    def test_error_bound_and_codec_settings_split_entries(self, dumper, sample):
        before = _compress_calls()
        dumper.dump(SZCompressor(), sample, 1e-2, int(10e9))
        dumper.dump(SZCompressor(), sample, 1e-3, int(10e9))
        dumper.dump(SZCompressor(zlib_level=9), sample, 1e-2, int(10e9))
        assert _compress_calls() == before + 3
        dumper.dump(SZCompressor(), sample, 1e-2, int(10e9))
        dumper.dump(SZCompressor(zlib_level=9), sample, 1e-2, int(10e9))
        assert _compress_calls() == before + 3

    def test_chunked_path_compresses_every_snapshot(self, sample):
        node = SimulatedNode(BROADWELL_D1548, seed=0)
        dumper = DataDumper(node, repeats=1, chunk_bytes=1 << 16,
                            executor="serial")
        before = _compress_calls()
        reports = [dumper.dump(SZCompressor(), sample, 1e-2, int(10e9))
                   for _ in range(3)]
        n_slabs = reports[0].parallel.n_tasks
        assert _compress_calls() == before + 3 * n_slabs
        assert all(r.parallel is not None for r in reports)

    def test_reused_span_is_marked(self, dumper, sample):
        tracer = Tracer()
        with use_tracer(tracer):
            dumper.dump(SZCompressor(), sample, 1e-2, int(10e9))
            dumper.dump(SZCompressor(), sample, 1e-2, int(10e9))
        spans = [s for root in tracer.spans for s, _ in root.walk()
                 if s.name == "dump.ratio"]
        assert [s.attrs.get("reused") for s in spans] == [None, True]
        assert spans[0].attrs["ratio"] == spans[1].attrs["ratio"]

    @pytest.mark.parametrize("fault_plan", [None, FAULTY],
                             ids=["clean", "faulted"])
    def test_reports_match_a_fresh_dumper_per_snapshot(
        self, sample, monkeypatch, fault_plan
    ):
        reused = self._campaign(sample, fault_plan)
        monkeypatch.setattr(campaign_module, "DataDumper",
                            _FreshDumperPerSnapshot)
        before = _compress_calls()
        fresh = self._campaign(sample, fault_plan)
        assert _compress_calls() == before + 12
        assert encode_value(reused) == encode_value(fresh)
        if fault_plan is not None:
            assert reused.snapshots[0].resilience is not None


class TestSlabPlanning:
    def test_fault_plan_is_sized_on_the_container_slabs(self, monkeypatch):
        """An integer sample is promoted to float64 before the slab split,
        so the fault plan must be sized on the promoted rows too."""
        from repro.compressors import ChunkedCompressor
        from repro.resilience.engine import FaultInjector

        seen = []
        original = FaultInjector.slab_wrapper

        def spy(self, snapshot, n_slabs):
            seen.append(n_slabs)
            return original(self, snapshot, n_slabs)

        monkeypatch.setattr(FaultInjector, "slab_wrapper", spy)
        sample = np.arange(64 * 64, dtype=np.int16).reshape(64, 64)
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.WORKER_CRASH, probability=1.0, targets=(5,)),
        ), seed=0)
        dumper = DataDumper(SimulatedNode(BROADWELL_D1548, seed=0), repeats=1,
                            chunk_bytes=4096, executor="serial")
        report = dumper.dump(SZCompressor(), sample, 1e-2, 10**9,
                             fault_plan=plan)
        container = ChunkedCompressor(
            SZCompressor(), max_chunk_bytes=4096, executor="serial"
        ).compress(sample, 1e-2)
        assert len(container.chunks) == 8
        assert seen == [len(container.chunks)]
        assert report.parallel.n_tasks == len(container.chunks)
        # The crash planned on slab 5 is a real slab, so it fires.
        assert "worker-crash" in report.resilience.faults
