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
from repro.hardware.perf import PerfStat
from repro.hardware.workload import codec_kind, compression_workload, write_workload
from repro.iosim.dumper import DumpReport, StageReport, stage_frequency
from repro.iosim.nfs import NfsTarget
from repro.utils.validation import check_in_range, check_nonnegative, check_positive

__all__ = ["ClusterDumpReport", "Cluster"]


@dataclass(frozen=True)
class ClusterDumpReport:
    """Aggregate outcome of a synchronized cluster dump."""

    per_node: Tuple[DumpReport, ...]
    nodes: int
    cpu_bound_fraction: float
    #: Sealed power-cap receipt when the dump ran under a watt budget
    #: (:class:`Cluster` with ``power_budget_w``), else None.
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
    """N identical simulated nodes sharing one NFS target.

    Optionally under a fleet-wide watt budget: with ``power_budget_w``
    a :class:`~repro.powercap.controller.ClusterCapController` splits
    ``budget - nfs_reserve`` watts across the nodes, re-solving at the
    compress -> write phase boundary from the per-node power telemetry
    recorded during the compress phase, and every stage frequency is
    clamped to its node's ``cap_ghz``. With ``governor`` set (a kind
    from :data:`repro.governor.GOVERNOR_KINDS`), each node runs its own
    governor and any caps flow through ``Governor.decide(cap_ghz=...)``
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
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        from repro.powercap.allocation import DEFAULT_CAP_HYSTERESIS, check_policy

        # The cap settings are checked even without a budget, so a bad
        # value fails here rather than when a budget is first applied.
        check_policy(policy)
        if nfs_reserve_w is not None:
            check_nonnegative(nfs_reserve_w, "nfs_reserve_w")
        hysteresis = DEFAULT_CAP_HYSTERESIS if hysteresis is None else hysteresis
        check_in_range(hysteresis, 0.0, 1.0, "hysteresis")
        weights = (
            (1.0,) * n_nodes
            if work_weights is None
            else tuple(float(w) for w in work_weights)
        )
        if len(weights) != n_nodes:
            raise ValueError(
                f"work_weights must have one entry per node, got "
                f"{len(weights)} for {n_nodes} nodes"
            )
        self.nfs = nfs if nfs is not None else NfsTarget()
        self.nodes = tuple(
            SimulatedNode(cpu, seed=seed + i) for i in range(n_nodes)
        )
        self._perfs = tuple(PerfStat(node, repeats=repeats) for node in self.nodes)
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
            from repro.powercap import DEFAULT_NFS_RESERVE_W, ClusterCapController

            self.controller = ClusterCapController(
                power_budget_w,
                policy=policy,
                nfs_reserve_w=(
                    DEFAULT_NFS_RESERVE_W if nfs_reserve_w is None
                    else nfs_reserve_w
                ),
                hysteresis=hysteresis,
            )
            for node_id, node, work in zip(self.node_ids, self.nodes, weights):
                self.controller.join(
                    node_id, node.cpu, node.power_curve, work=work
                )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def _run_phase(self, phase: str, workload, pinned: Optional[float], nbytes):
        """Run one synchronized phase on every node; per-node triples.

        A budget makes the phase boundary an allocation epoch: the
        controller re-solves against the phase's power curve and the
        demand telemetry streamed during the previous phase.
        """
        caps = None if self.controller is None else self.controller.begin_phase(phase)
        results = []
        for i, (node_id, node) in enumerate(zip(self.node_ids, self.nodes)):
            governor = (
                None if self._governor_by_node is None
                else self._governor_by_node[i]
            )
            freq = stage_frequency(
                node.cpu, phase, pinned,
                None if caps is None else caps[node_id].governor_cap_ghz,
                governor,
            )
            f, t, e = self._perfs[i].stage(workload, freq)
            if governor is not None:
                governor.observe(phase, f, e / t, t, nbytes)
            if self.controller is not None:
                self.controller.record_demand(node_id, e / t)
            results.append((f, t, e))
        return results

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
        rolled out fleet-wide). The fleet runs phase-major — every node
        compresses, then every node writes — and each node owns its RNG,
        so the order changes no per-node draw.
        """
        check_positive(bytes_per_node, "bytes_per_node")
        kind = codec_kind(compressor.name)
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

        wl_c = compression_workload(
            kind, bytes_per_node, error_bound,
            name=f"{compressor.name}-cluster-dump",
        )
        wl_w = write_workload(compressed_bytes, bw, name=f"cluster-write/{n}")
        # Contention derates how much the client CPU matters.
        base_s = wl_w.sensitivity(self.nodes[0].cpu)
        wl_w = replace(wl_w, sensitivity_override=base_s * cpu_frac)

        compress = self._run_phase(
            "compress", wl_c, compress_freq_ghz, bytes_per_node
        )
        write = self._run_phase("write", wl_w, write_freq_ghz, compressed_bytes)
        reports = tuple(
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
            for (fc, t_c, e_c), (fw, t_w, e_w) in zip(compress, write)
        )
        return ClusterDumpReport(
            per_node=reports, nodes=n, cpu_bound_fraction=cpu_frac,
            powercap=(
                None if self.controller is None else self.controller.report()
            ),
        )
