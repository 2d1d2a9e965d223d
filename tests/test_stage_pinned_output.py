"""Byte-for-byte pins on every simulated-stage path.

The I/O simulators (cluster, single-node dump, restore, tiered and
snapshot dumps) and the four sweep builders all turn a workload into a
measured stage. ``test_golden_numbers.py`` pins the published figures
with tolerances; this module pins the exact output instead, so a
refactor of the shared measurement, kind lookup or cluster loop that
moves a single float, RNG draw, record key or cache key fails here.

Each digest is a sha256 over ``repr`` of a canonical nested tuple: a
dataclass becomes its class name plus ``(field, value)`` pairs, a dict
keeps its key order, and every float is hashed by ``repr(float(x))``
(numpy scalars included, so the digest does not depend on the NumPy
version's scalar ``repr``).

Regenerating a digest is only right after an intentional modeling
change; update EXPERIMENTS.md alongside it.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cache import ResultCache, use_cache
from repro.compressors import SZCompressor, ZFPCompressor
from repro.core.tuning import PAPER_POLICY
from repro.data.registry import load_field
from repro.governor import make_governor
from repro.hardware.cpu import BROADWELL_D1548, SKYLAKE_4114
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import WorkloadKind
from repro.iosim.burstbuffer import TieredDumper
from repro.iosim.cluster import Cluster
from repro.iosim.dumper import DataDumper
from repro.iosim.loader import DataLoader
from repro.iosim.snapshot import SnapshotDumper, SnapshotField, SnapshotSpec
from repro.powercap.controller import node_power_model
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.service.errors import BadRequestError
from repro.service.handlers import RequestHandlers
from repro.service.registry import ModelRegistry
from repro.workflow.sweep import (
    SweepConfig,
    compression_sweep,
    decompression_sweep,
    default_nodes,
    read_sweep,
    transit_sweep,
)

GB = int(1e9)
CPUS = (BROADWELL_D1548, SKYLAKE_4114)


def _canon(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            (f.name, _canon(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        )
    if isinstance(obj, dict):
        return tuple((_canon(k), _canon(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(v) for v in obj)
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def digest(obj) -> str:
    return hashlib.sha256(repr(_canon(obj)).encode()).hexdigest()


def eqn3(cpu):
    return dict(
        compress_freq_ghz=PAPER_POLICY.frequency_for(cpu, WorkloadKind.COMPRESS_SZ),
        write_freq_ghz=PAPER_POLICY.frequency_for(cpu, WorkloadKind.WRITE),
    )


@pytest.fixture(scope="module")
def field():
    return load_field("nyx", "velocity_x", scale=32)


class _UnknownCodec:
    name = "lz4"


class TestClusterDigests:
    def run(self, field, **kw):
        pinned = kw.pop("pinned", False)
        out = []
        for cpu in CPUS:
            for codec in (SZCompressor(), ZFPCompressor()):
                cluster = Cluster(cpu, 3, seed=5, repeats=2, **kw)
                freqs = eqn3(cpu) if pinned else {}
                # Twice, so a governor acts on what it observed.
                for eb in (1e-2, 1e-3):
                    out.append(cluster.dump_all(codec, field, eb, GB, **freqs))
        return out

    def test_uncapped_default(self, field):
        assert digest(self.run(field)) == (
            "9228e45b70826a5426e3afbf9c4c446115189df1993fd52a8efac3f522a8277b"
        )

    def test_uncapped_pinned_eqn3(self, field):
        assert digest(self.run(field, pinned=True)) == (
            "1f96bbb65cb4cb7828551947f3bb54e05b677971a7d417ea5c3f14d76d81a21d"
        )

    def test_waterfill_150w(self, field):
        assert digest(self.run(field, power_budget_w=150.0)) == (
            "ef3d48d181449a6c8e439d32c7d6a4f0f9f4b3a9c8c520c2accf113a0c99e980"
        )

    def test_waterfill_150w_pinned(self, field):
        assert digest(self.run(field, power_budget_w=150.0, pinned=True)) == (
            "7f140a7854b1f42d652518f02a966987a53335b0b28276c473c09e4981526b4f"
        )

    def test_adaptive_governor(self, field):
        assert digest(self.run(field, governor="adaptive")) == (
            "01a9e5ab564887d6056ded531e929f6584f1f7b0700effb174f6f9973e4cc462"
        )

    def test_capped_adaptive_governor(self, field):
        got = self.run(field, power_budget_w=68.0, nfs_reserve_w=40.0,
                       governor="adaptive")
        assert digest(got) == (
            "b3d1d4de2c28ef2ec42f3f41f44198da512fae2a177da662fdb583a4ab022973"
        )


class TestSingleNodeDigests:
    def test_data_dumper(self, field):
        out = []
        plan = FaultPlan(specs=(
            FaultSpec(FaultKind.NFS_TRANSIENT_ERROR, probability=1.0,
                      attempts=1, severity=0.5),
            FaultSpec(FaultKind.DVFS_THROTTLE, probability=1.0, severity=0.5),
        ), seed=3)
        for cpu in CPUS:
            dumper = DataDumper(SimulatedNode(cpu, seed=2), repeats=3)
            out.append(dumper.dump(SZCompressor(), field, 1e-2, GB))
            out.append(dumper.dump(ZFPCompressor(), field, 1e-3, GB,
                                   **eqn3(cpu)))
            out.append(dumper.dump(
                SZCompressor(), field, 1e-2, GB,
                phase_caps={"compress": 1.5, "write": 0.0}))
            out.append(dumper.dump(
                SZCompressor(), field, 1e-2, GB, fault_plan=plan,
                compress_freq_ghz=cpu.fmax_ghz))
            governor = make_governor("adaptive", cpu, seed=1)
            for _ in range(3):
                out.append(dumper.dump(
                    SZCompressor(), field, 1e-2, GB, governor=governor,
                    phase_caps={"compress": 1.6}))
        assert digest(out) == (
            "cad8ae4e3ab0c27db0983ab6924b7908b90609e41dd2525d1dc3152881916cfe"
        )

    def test_restore(self, field):
        out = []
        for cpu in CPUS:
            loader = DataLoader(SimulatedNode(cpu, seed=4), repeats=3)
            out.append(loader.restore(SZCompressor(), field, 1e-2, GB))
            out.append(loader.restore(
                ZFPCompressor(), field, 1e-3, GB,
                read_freq_ghz=cpu.fmin_ghz, decompress_freq_ghz=1.7))
        assert digest(out) == (
            "e3bcfa9e347d48bb1eff7f44e84a07cb25e0df089269508fbbe1abae467e585c"
        )

    def test_tiered_dump(self, field):
        out = []
        for cpu in CPUS:
            dumper = TieredDumper(SimulatedNode(cpu, seed=6), repeats=2)
            out.append(dumper.dump(SZCompressor(), field, 1e-2, GB))
            out.append(dumper.dump(
                ZFPCompressor(), field, 1e-3, GB, compress_freq_ghz=1.6,
                absorb_freq_ghz=cpu.fmin_ghz, drain_freq_ghz=1.4))
        assert digest(out) == (
            "faaf6474032263a380269287138f85add3b0af172f9a0bf8a15554d68a970890"
        )

    def test_snapshot_dump(self, field):
        spec = SnapshotSpec(fields=(
            SnapshotField("velocity_x", field, 1e-2, GB),
            SnapshotField("density", field[::2], 1e-4, GB // 2),
        ))
        out = []
        for cpu in CPUS:
            dumper = SnapshotDumper(SimulatedNode(cpu, seed=8), repeats=2)
            out.append(dumper.dump(SZCompressor(), spec))
            out.append(dumper.dump(ZFPCompressor(), spec, **eqn3(cpu)))
        assert digest(out) == (
            "627abd96d9a8a81ff202412ea03bf3534e56e81abc9cdc95c6c1aa6ef418e6ee"
        )


class _KeyLog(ResultCache):
    """A fresh cache that records every (context, key) it is asked for."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def get_or_compute(self, key, compute, context="generic"):
        self.keys.append((context, key))
        return super().get_or_compute(key, compute, context)


class TestSweepDigests:
    CONFIG = SweepConfig(
        datasets=(("nyx", "velocity_x"), ("hacc", "x")),
        error_bounds=(1e-2, 1e-4),
        transit_sizes_gb=(1.0, 4.0),
        repeats=2,
        data_scale=32,
        frequency_stride=6,
    )

    @pytest.fixture(scope="class")
    def sweeps(self):
        log = _KeyLog()
        with use_cache(log):
            nodes = default_nodes(seed=3)
            records = {
                sweep.__name__: list(sweep(nodes, self.CONFIG))
                for sweep in (compression_sweep, transit_sweep,
                              decompression_sweep, read_sweep)
            }
        return records, log.keys

    @pytest.mark.parametrize("name, expected", [
        ("compression_sweep",
         "59f1487dc0076fc398cd5b07706e895e01ecd30d252f87ba8c44a8ec730b8542"),
        ("transit_sweep",
         "cfdffc0950cdcb06b14e6b62f56b33a812248ec83849a55e2f289744f62dd717"),
        ("decompression_sweep",
         "dc3180587d066805a285ee5eaa84aec6c6e034dcb2236d9df8f39abbe0704ffe"),
        ("read_sweep",
         "33d3106ab44d1f3e638650de5d101a3a9cc1c913b5efe1f9e375b1cd47e7c4ff"),
    ])
    def test_records(self, sweeps, name, expected):
        records, _ = sweeps
        assert digest(records[name]) == expected

    def test_cache_keys(self, sweeps):
        _, keys = sweeps
        contexts = [context for context, _ in keys]
        assert contexts == (
            ["sweep.ratio"] * 8
            + ["sweep.compression"] * 2 + ["sweep.transit"] * 2
            + ["sweep.decompression"] * 2 + ["sweep.read"] * 2
        )
        assert digest(keys) == (
            "3f4b734bd51386ba1ac4370931bbba822bc2431a8314e4f81f79408c844d072a"
        )


class TestUnknownCodecMessages:
    """Each caller keeps its own error for a codec with no workload kind."""

    def test_iosim_key_errors(self, field):
        node = SimulatedNode(SKYLAKE_4114)
        calls = (
            lambda c: DataDumper(node).dump(c, field, 1e-2, GB),
            lambda c: Cluster(SKYLAKE_4114, 2).dump_all(c, field, 1e-2, GB),
            lambda c: DataLoader(node).restore(c, field, 1e-2, GB),
            lambda c: TieredDumper(node).dump(c, field, 1e-2, GB),
            lambda c: SnapshotDumper(node).dump(c, SnapshotSpec(
                fields=(SnapshotField("f", field, 1e-2, GB),))),
        )
        for call in calls:
            with pytest.raises(KeyError) as err:
                call(_UnknownCodec())
            assert err.value.args == ("no workload kind for codec 'lz4'",)

    def test_service_decide_answers_400(self):
        handlers = RequestHandlers(ModelRegistry())
        with pytest.raises(BadRequestError) as err:
            handlers.handle_decide({
                "arch": "skylake", "codec": "lz4", "ratio": 8.0,
                "error_bound": 1e-2, "nbytes": GB,
            })
        assert str(err.value) == "unknown codec 'lz4'; known: ['sz', 'zfp']"

    def test_powercap_value_error(self):
        with pytest.raises(ValueError) as err:
            node_power_model("n0", SKYLAKE_4114, SimulatedNode(SKYLAKE_4114)
                             .power_curve, phase="compress", codec="lz4")
        assert str(err.value) == "unknown codec 'lz4'; known: sz, zfp"
