"""Read-then-decompress restore pipeline (extension of Section VI-B).

The inverse of :class:`~repro.iosim.dumper.DataDumper`: fetch the
compressed bytes from the NFS, then decompress back to the full volume.
Stage order and the per-stage frequency control mirror the dumper so
the same tuning methodology applies to the restore path the paper
leaves to future work.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor
from repro.hardware.node import SimulatedNode
from repro.hardware.perf import PerfStat
from repro.hardware.workload import codec_kind, decompression_workload, read_workload
from repro.iosim.dumper import DumpReport, StageReport
from repro.iosim.nfs import NfsTarget
from repro.utils.validation import check_positive

__all__ = ["RestoreReport", "DataLoader"]


class RestoreReport(DumpReport):
    """Restore outcome; reuses the dump report structure with the
    ``compress`` slot holding the decompression stage and ``write``
    holding the read stage."""

    @property
    def decompress(self) -> StageReport:
        return self.compress

    @property
    def read(self) -> StageReport:
        return self.write


class DataLoader:
    """Runs the read-then-decompress pipeline on a simulated node."""

    def __init__(
        self, node: SimulatedNode, nfs: NfsTarget | None = None, repeats: int = 10
    ) -> None:
        self.perf = PerfStat(node, repeats=repeats)
        self.node = node
        self.nfs = nfs if nfs is not None else NfsTarget()

    def restore(
        self,
        compressor: Compressor,
        sample_field: np.ndarray,
        error_bound: float,
        target_bytes: int,
        read_freq_ghz: float | None = None,
        decompress_freq_ghz: float | None = None,
    ) -> RestoreReport:
        """Read and decompress *target_bytes* worth of reconstructed data.

        The real codec runs on *sample_field* to obtain the compressed
        size that must be fetched from the NFS.
        """
        check_positive(target_bytes, "target_bytes")
        kind = codec_kind(compressor.name, decompress=True)

        buf = compressor.compress(sample_field, error_bound)
        ratio = buf.ratio
        compressed_bytes = max(1, int(round(target_bytes / ratio)))

        cpu = self.node.cpu
        f_r = cpu.fmax_ghz if read_freq_ghz is None else read_freq_ghz
        f_d = cpu.fmax_ghz if decompress_freq_ghz is None else decompress_freq_ghz

        wl_r = read_workload(compressed_bytes, self.nfs.effective_bandwidth_bps(),
                             name="restore-read")
        fr_snapped, t_r, e_r = self.perf.stage(wl_r, f_r)

        wl_d = decompression_workload(
            kind, target_bytes, error_bound, name=f"{compressor.name}-restore",
        )
        fd_snapped, t_d, e_d = self.perf.stage(wl_d, f_d)

        return RestoreReport(
            compress=StageReport(
                stage="decompress",
                freq_ghz=fd_snapped,
                bytes_processed=target_bytes,
                runtime_s=t_d,
                energy_j=e_d,
            ),
            write=StageReport(
                stage="read",
                freq_ghz=fr_snapped,
                bytes_processed=compressed_bytes,
                runtime_s=t_r,
                energy_j=e_r,
            ),
            compression_ratio=ratio,
            error_bound=error_bound,
        )
