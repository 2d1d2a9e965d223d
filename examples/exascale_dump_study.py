#!/usr/bin/env python
"""Exascale dump study: Section VI-B at several target sizes.

Sweeps the 512 GB NYX dump experiment across error bounds *and* target
sizes (128 GB - 2 TB), comparing base-clock and Eqn. 3-tuned energy,
plus a model-optimal policy for contrast.

    python examples/exascale_dump_study.py
"""

import numpy as np

from repro import (
    PAPER_POLICY,
    SweepConfig,
    TunedIOPipeline,
    default_nodes,
    optimal_frequency,
)
from repro.workflow.report import render_table


def main() -> None:
    pipe = TunedIOPipeline(default_nodes())
    outcome = pipe.recommend(pipe.characterize(SweepConfig()), PAPER_POLICY)

    rows = []
    for arch in ("broadwell", "skylake"):
        for target_gb in (128, 512, 2048):
            for eb in (1e-1, 1e-3):
                report = pipe.apply(
                    outcome,
                    arch=arch,
                    error_bound=eb,
                    target_bytes=int(target_gb * 1e9),
                )
                rows.append(
                    {
                        "arch": arch,
                        "target_gb": target_gb,
                        "eb": eb,
                        "ratio": report.compression_ratio,
                        "base_kj": report.baseline_energy_j / 1e3,
                        "tuned_kj": report.tuned_energy_j / 1e3,
                        "saved_kj": report.energy_saved_j / 1e3,
                        "saved_pct": report.energy_saving_fraction * 100,
                    }
                )
    print(render_table(rows, title="Compress-and-dump energy, base clock vs Eqn. 3"))

    # Savings should scale ~linearly with the data volume.
    for arch in ("broadwell", "skylake"):
        sub = [r for r in rows if r["arch"] == arch and r["eb"] == 1e-1]
        sub.sort(key=lambda r: r["target_gb"])
        per_gb = [r["saved_kj"] / r["target_gb"] for r in sub]
        spread = (max(per_gb) - min(per_gb)) / np.mean(per_gb)
        print(f"{arch}: savings per GB spread across sizes: {spread * 100:.1f} % "
              "(≈ linear in volume)")

    # Contrast Eqn. 3 with the model-optimal frequency per architecture.
    print()
    for node in pipe.nodes:
        arch = node.cpu.arch
        f_opt = optimal_frequency(
            outcome.compression_models[arch.capitalize()],
            outcome.compression_runtime[arch],
            node.cpu,
        )
        f_eqn3 = 0.875 * node.cpu.fmax_ghz
        print(f"{arch}: Eqn. 3 pins compression at {f_eqn3:.3f} GHz; "
              f"model-optimal energy frequency is {f_opt:.3f} GHz")


if __name__ == "__main__":
    main()
