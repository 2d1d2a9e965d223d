"""Extension bench: do the paper's trends hold on a third CPU?

The paper's closing question. We run the same sweep → scale → fit →
tune loop on the extension Cascade Lake node (whose ground-truth curve
is an independent intermediate shape, not a paper fit) and check every
headline trend.
"""

import numpy as np
from conftest import emit

from repro.core.objectives import optimal_frequency
from repro.core.power_model import PowerModel
from repro.core.runtime_model import fit_runtime_model
from repro.core.scaling import add_scaled_columns
from repro.hardware.cpu import CASCADELAKE_6230
from repro.hardware.node import SimulatedNode
from repro.workflow.report import render_table
from repro.workflow.sweep import SweepConfig, compression_sweep


def test_bench_extension_third_cpu(benchmark):
    def run():
        node = SimulatedNode(CASCADELAKE_6230, seed=5)
        cfg = SweepConfig(repeats=10, data_scale=16, measure_ratios=False)
        samples = add_scaled_columns(compression_sweep([node], cfg))
        power = PowerModel.fit("Cascadelake", samples)
        runtime = fit_runtime_model("compress-cascadelake", samples)
        return node, samples, power, runtime

    node, samples, power, runtime = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [power.as_table_row()]
    emit(render_table(rows, title="EXTENSION — third-CPU compression power model"))

    cpu = node.cpu
    f_eqn3 = cpu.snap_frequency(0.875 * cpu.fmax_ghz)
    p_saving = power.savings_at(f_eqn3)
    slow = runtime.slowdown_at(f_eqn3)
    energy_saving = 1 - (1 - p_saving) * (1 + slow)
    f_opt = optimal_frequency(power, runtime, cpu)
    emit(f"Eqn. 3 on cascadelake: {p_saving:.1%} power saving, "
         f"+{slow:.1%} runtime, {energy_saving:.1%} energy saving; "
         f"model-optimal frequency {f_opt} GHz")

    # The paper's trends, checked on the unseen architecture:
    # 1. critical power slope (tight per-arch fit, floor ~0.75-0.85);
    assert power.gof.r2 > 0.85
    assert 0.70 < power.c < 0.88
    # 2. power minimized at fmin, runtime at fmax (model forms);
    grid = cpu.available_frequencies()
    p = power.predict(grid)
    assert p[0] == min(p) and p[-1] == max(p)
    # 3. Eqn. 3 still trades a small slowdown for net energy savings;
    assert 0.0 < slow < 0.12
    assert energy_saving > 0.02
    # 4. a model-driven optimum exists strictly inside the DVFS range.
    assert grid[0] < f_opt <= grid[-1]

    benchmark.extra_info["equation"] = power.equation()
    benchmark.extra_info["eqn3_energy_saving"] = energy_saving
