"""Cluster-scale data dumping with shared-NFS contention.

The paper studies one node; at exascale, many nodes dump snapshots
concurrently through shared storage. This extension models N identical
clients writing to one :class:`~repro.iosim.nfs.NfsTarget`:

* compression is node-local — costs are independent of N;
* writes contend for the server capacity (network ∧ disk). Each client
  sustains ``min(cpu_copy_rate, capacity / N)``; once the shared side
  saturates, the client CPU stops being the bottleneck, so the write
  stage's DVFS sensitivity is derated by
  :meth:`~repro.iosim.nfs.NfsTarget.cpu_bound_fraction`.

The interesting emergent behaviour (see the extension bench): under
contention, lowering the write frequency becomes *free* — runtime is
pinned by the network — so per-node tuning savings grow with N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.powercap.controller import PowercapReport

from repro.compressors.base import Compressor
from repro.hardware.cpu import CpuSpec
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import (
    WorkloadKind,
    compression_workload,
    write_workload,
)
from repro.iosim.dumper import DumpReport, StageReport
from repro.iosim.nfs import NfsTarget
from repro.utils.validation import check_positive

__all__ = ["ClusterDumpReport", "Cluster", "SimulatedCluster"]

_KIND_BY_CODEC = {
    "sz": WorkloadKind.COMPRESS_SZ,
    "zfp": WorkloadKind.COMPRESS_ZFP,
}


@dataclass(frozen=True)
class ClusterDumpReport:
    """Aggregate outcome of a synchronized cluster dump."""

    per_node: Tuple[DumpReport, ...]
    nodes: int
    cpu_bound_fraction: float
    #: Sealed power-cap receipt when the dump ran under a watt budget
    #: (:class:`SimulatedCluster` with ``power_budget_w``), else None.
    powercap: Optional["PowercapReport"] = None

    @property
    def total_energy_j(self) -> float:
        """Cluster-wide energy (sum over nodes)."""
        return float(sum(r.total_energy_j for r in self.per_node))

    @property
    def makespan_s(self) -> float:
        """Wall time of the synchronized dump (slowest node per phase)."""
        return float(
            max(r.compress.runtime_s for r in self.per_node)
            + max(r.write.runtime_s for r in self.per_node)
        )

    @property
    def aggregate_write_bandwidth_bps(self) -> float:
        """Achieved cluster write bandwidth during the write phase."""
        total_bytes = sum(r.write.bytes_processed for r in self.per_node)
        write_time = max(r.write.runtime_s for r in self.per_node)
        return total_bytes / write_time


class Cluster:
    """N identical simulated nodes sharing one NFS target."""

    def __init__(
        self,
        cpu: CpuSpec,
        n_nodes: int,
        nfs: Optional[NfsTarget] = None,
        seed: int = 0,
        repeats: int = 5,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        self.nfs = nfs if nfs is not None else NfsTarget()
        self.nodes = tuple(
            SimulatedNode(cpu, seed=seed + i) for i in range(n_nodes)
        )
        self.repeats = int(repeats)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def _run_stage(self, node: SimulatedNode, workload, freq_ghz: float):
        node.set_frequency(freq_ghz)
        runs = [node.run(workload) for _ in range(self.repeats)]
        runtime = float(np.mean([m.runtime_s for m in runs]))
        energy = float(np.mean([m.energy_j for m in runs]))
        return runs[0].freq_ghz, runtime, energy

    def dump_all(
        self,
        compressor: Compressor,
        sample_field: np.ndarray,
        error_bound: float,
        bytes_per_node: int,
        compress_freq_ghz: float | None = None,
        write_freq_ghz: float | None = None,
    ) -> ClusterDumpReport:
        """Every node compresses and writes *bytes_per_node* concurrently.

        Frequencies default to the base clock; the same pinned values
        apply cluster-wide (the realistic deployment: one tuning policy
        rolled out fleet-wide).
        """
        check_positive(bytes_per_node, "bytes_per_node")
        if compressor.name not in _KIND_BY_CODEC:
            raise KeyError(f"no workload kind for codec {compressor.name!r}")

        buf = compressor.compress(sample_field, error_bound)
        ratio = buf.ratio
        compressed_bytes = max(1, int(round(bytes_per_node / ratio)))

        n = self.n_nodes
        bw = self.nfs.effective_bandwidth_bps(concurrent_clients=n)
        cpu_frac = self.nfs.cpu_bound_fraction(concurrent_clients=n)

        reports = []
        for i, node in enumerate(self.nodes):
            cpu = node.cpu
            f_c = cpu.fmax_ghz if compress_freq_ghz is None else compress_freq_ghz
            f_w = cpu.fmax_ghz if write_freq_ghz is None else write_freq_ghz

            wl_c = compression_workload(
                _KIND_BY_CODEC[compressor.name], bytes_per_node, error_bound,
                name=f"{compressor.name}-cluster-dump",
            )
            fc, t_c, e_c = self._run_stage(node, wl_c, f_c)

            wl_w = write_workload(compressed_bytes, bw, name=f"cluster-write/{n}")
            # Contention derates how much the client CPU matters.
            base_s = wl_w.sensitivity(cpu)
            wl_w = replace(wl_w, sensitivity_override=base_s * cpu_frac)
            fw, t_w, e_w = self._run_stage(node, wl_w, f_w)

            reports.append(
                DumpReport(
                    compress=StageReport(
                        stage="compress", freq_ghz=fc,
                        bytes_processed=bytes_per_node,
                        runtime_s=t_c, energy_j=e_c,
                    ),
                    write=StageReport(
                        stage="write", freq_ghz=fw,
                        bytes_processed=compressed_bytes,
                        runtime_s=t_w, energy_j=e_w,
                    ),
                    compression_ratio=ratio,
                    error_bound=error_bound,
                )
            )
        return ClusterDumpReport(
            per_node=tuple(reports), nodes=n, cpu_bound_fraction=cpu_frac
        )


class SimulatedCluster(Cluster):
    """A :class:`Cluster` under an optional fleet-wide watt budget.

    With ``power_budget_w=None`` (and no governor) every call takes
    :class:`Cluster`'s exact code path, so reports are bit-identical to
    the uncapped cluster. With a budget, a
    :class:`~repro.powercap.controller.ClusterCapController` splits
    ``budget - nfs_reserve`` watts across the nodes, re-solving at the
    compress -> write phase boundary from the per-node power telemetry
    recorded during the compress phase, and every stage frequency is
    clamped to its node's ``cap_ghz``. With ``governor`` set (a kind
    from :data:`repro.governor.GOVERNOR_KINDS`), each node runs its own
    governor and the caps flow through ``Governor.decide(cap_ghz=...)``
    — infeasible caps surface as ``capped_below_fmin`` trace tags.
    """

    def __init__(
        self,
        cpu: CpuSpec,
        n_nodes: int,
        nfs: Optional[NfsTarget] = None,
        seed: int = 0,
        repeats: int = 5,
        power_budget_w: Optional[float] = None,
        policy: str = "waterfill",
        nfs_reserve_w: Optional[float] = None,
        hysteresis: Optional[float] = None,
        work_weights: Optional[Sequence[float]] = None,
        governor: Optional[str] = None,
    ) -> None:
        super().__init__(cpu, n_nodes, nfs=nfs, seed=seed, repeats=repeats)
        self.node_ids = tuple(f"node{i:03d}" for i in range(self.n_nodes))
        self.controller = None
        self._governor_by_node = None
        if governor is not None:
            from repro.governor import make_governor

            self._governor_by_node = tuple(
                make_governor(governor, cpu, seed=seed + i,
                              power_curve=node.power_curve)
                for i, node in enumerate(self.nodes)
            )
        if power_budget_w is not None:
            from repro.powercap import (
                DEFAULT_CAP_HYSTERESIS,
                DEFAULT_NFS_RESERVE_W,
                ClusterCapController,
            )

            weights = (
                (1.0,) * self.n_nodes
                if work_weights is None
                else tuple(float(w) for w in work_weights)
            )
            if len(weights) != self.n_nodes:
                raise ValueError(
                    f"work_weights must have one entry per node, got "
                    f"{len(weights)} for {self.n_nodes} nodes"
                )
            self.controller = ClusterCapController(
                power_budget_w,
                policy=policy,
                nfs_reserve_w=(
                    DEFAULT_NFS_RESERVE_W if nfs_reserve_w is None
                    else nfs_reserve_w
                ),
                hysteresis=(
                    DEFAULT_CAP_HYSTERESIS if hysteresis is None
                    else hysteresis
                ),
            )
            for node_id, node, work in zip(self.node_ids, self.nodes, weights):
                self.controller.join(
                    node_id, node.cpu, node.power_curve, work=work
                )

    def _stage_frequency(
        self,
        index: int,
        phase: str,
        pinned: Optional[float],
        cap,
    ) -> float:
        cpu = self.nodes[index].cpu
        if self._governor_by_node is not None:
            cap_ghz = None if cap is None else cap.governor_cap_ghz
            return self._governor_by_node[index].decide(phase, cap_ghz=cap_ghz)
        freq = cpu.fmax_ghz if pinned is None else pinned
        if cap is not None:
            # An infeasible cap (governor_cap_ghz == 0.0) still clamps
            # to the DVFS floor — the node cannot clock lower.
            freq = min(freq, max(cap.governor_cap_ghz, cpu.fmin_ghz))
        return freq

    def dump_all(
        self,
        compressor: Compressor,
        sample_field: np.ndarray,
        error_bound: float,
        bytes_per_node: int,
        compress_freq_ghz: float | None = None,
        write_freq_ghz: float | None = None,
    ) -> ClusterDumpReport:
        if self.controller is None and self._governor_by_node is None:
            return super().dump_all(
                compressor, sample_field, error_bound, bytes_per_node,
                compress_freq_ghz=compress_freq_ghz,
                write_freq_ghz=write_freq_ghz,
            )
        check_positive(bytes_per_node, "bytes_per_node")
        if compressor.name not in _KIND_BY_CODEC:
            raise KeyError(f"no workload kind for codec {compressor.name!r}")
        if self._governor_by_node is not None and (
            compress_freq_ghz is not None or write_freq_ghz is not None
        ):
            raise ValueError(
                "cannot pin stage frequencies and run per-node governors "
                "at the same time"
            )

        buf = compressor.compress(sample_field, error_bound)
        ratio = buf.ratio
        compressed_bytes = max(1, int(round(bytes_per_node / ratio)))

        n = self.n_nodes
        bw = self.nfs.effective_bandwidth_bps(concurrent_clients=n)
        cpu_frac = self.nfs.cpu_bound_fraction(concurrent_clients=n)

        # Compress phase, synchronized across the fleet. (Stages are
        # independent per node, so running them phase-major changes no
        # per-node RNG draws versus the uncapped node-major loop.)
        caps = None
        if self.controller is not None:
            caps = self.controller.begin_phase("compress")
        compress_results = []
        for i, (node_id, node) in enumerate(zip(self.node_ids, self.nodes)):
            f_c = self._stage_frequency(
                i, "compress", compress_freq_ghz,
                None if caps is None else caps[node_id],
            )
            wl_c = compression_workload(
                _KIND_BY_CODEC[compressor.name], bytes_per_node, error_bound,
                name=f"{compressor.name}-cluster-dump",
            )
            fc, t_c, e_c = self._run_stage(node, wl_c, f_c)
            if self._governor_by_node is not None:
                self._governor_by_node[i].observe(
                    "compress", fc, e_c / t_c, t_c, bytes_per_node
                )
            if self.controller is not None:
                self.controller.record_demand(node_id, e_c / t_c)
            compress_results.append((fc, t_c, e_c))

        # Write phase: the phase boundary is an allocation epoch — the
        # controller re-solves against the write-path power curve and
        # the demand telemetry streamed during compression.
        if self.controller is not None:
            caps = self.controller.begin_phase("write")
        write_results = []
        for i, (node_id, node) in enumerate(zip(self.node_ids, self.nodes)):
            f_w = self._stage_frequency(
                i, "write", write_freq_ghz,
                None if caps is None else caps[node_id],
            )
            wl_w = write_workload(compressed_bytes, bw, name=f"cluster-write/{n}")
            base_s = wl_w.sensitivity(node.cpu)
            wl_w = replace(wl_w, sensitivity_override=base_s * cpu_frac)
            fw, t_w, e_w = self._run_stage(node, wl_w, f_w)
            if self._governor_by_node is not None:
                self._governor_by_node[i].observe(
                    "write", fw, e_w / t_w, t_w, compressed_bytes
                )
            if self.controller is not None:
                self.controller.record_demand(node_id, e_w / t_w)
            write_results.append((fw, t_w, e_w))

        reports = []
        for (fc, t_c, e_c), (fw, t_w, e_w) in zip(
            compress_results, write_results
        ):
            reports.append(
                DumpReport(
                    compress=StageReport(
                        stage="compress", freq_ghz=fc,
                        bytes_processed=bytes_per_node,
                        runtime_s=t_c, energy_j=e_c,
                    ),
                    write=StageReport(
                        stage="write", freq_ghz=fw,
                        bytes_processed=compressed_bytes,
                        runtime_s=t_w, energy_j=e_w,
                    ),
                    compression_ratio=ratio,
                    error_bound=error_bound,
                )
            )
        return ClusterDumpReport(
            per_node=tuple(reports), nodes=n, cpu_bound_fraction=cpu_frac,
            powercap=(
                None if self.controller is None else self.controller.report()
            ),
        )
