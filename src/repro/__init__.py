"""repro — power modeling and DVFS tuning of lossy compressed I/O.

A full reproduction of Wilkins & Calhoun, *"Modeling Power Consumption
of Lossy Compressed I/O for Exascale HPC Systems"* (2022): pure-NumPy
SZ and ZFP codecs, a simulated DVFS/RAPL hardware substrate calibrated
to the paper's two CloudLab nodes, an NFS data-transit model, the
``P(f) = a·f^b + c`` regression pipeline, and the Eqn. 3 frequency
tuning methodology — plus a benchmark harness regenerating every table
and figure of the paper's evaluation.

Quickstart::

    from repro import TunedIOPipeline, default_nodes, PAPER_POLICY
    pipe = TunedIOPipeline(default_nodes())
    outcome = pipe.recommend(pipe.characterize(), PAPER_POLICY)
    report = pipe.apply(outcome, arch="broadwell")
    print(report.energy_saved_j, report.energy_saving_fraction)
"""

from repro.compressors import (
    Compressor,
    CompressedBuffer,
    LosslessCompressor,
    SZCompressor,
    ZFPCompressor,
    available_compressors,
    get_compressor,
)
from repro.core import (
    PAPER_POLICY,
    ModelBundle,
    Objective,
    PipelineOutcome,
    PowerModel,
    RuntimeModel,
    SampleSet,
    SavingsReport,
    TunedIOPipeline,
    TuningPolicy,
    fit_partition_models,
    fit_power_law,
    fit_runtime_model,
    optimal_frequency,
)
from repro.data import available_datasets, load_dataset, load_field
from repro.hardware import (
    BROADWELL_D1548,
    CASCADELAKE_6230,
    SKYLAKE_4114,
    CalibratedPowerCurve,
    CpuSpec,
    PerfStat,
    PhysicalPowerCurve,
    SimulatedNode,
)
from repro.iosim import DataDumper, DataLoader, NfsTarget
from repro.workflow import SweepConfig, compression_sweep, default_nodes, transit_sweep

__version__ = "1.0.0"

__all__ = [
    "Compressor",
    "CompressedBuffer",
    "LosslessCompressor",
    "SZCompressor",
    "ZFPCompressor",
    "available_compressors",
    "get_compressor",
    "PAPER_POLICY",
    "ModelBundle",
    "Objective",
    "optimal_frequency",
    "CASCADELAKE_6230",
    "DataLoader",
    "PipelineOutcome",
    "PowerModel",
    "RuntimeModel",
    "SampleSet",
    "SavingsReport",
    "TunedIOPipeline",
    "TuningPolicy",
    "fit_partition_models",
    "fit_power_law",
    "fit_runtime_model",
    "available_datasets",
    "load_dataset",
    "load_field",
    "BROADWELL_D1548",
    "SKYLAKE_4114",
    "CalibratedPowerCurve",
    "CpuSpec",
    "PerfStat",
    "PhysicalPowerCurve",
    "SimulatedNode",
    "DataDumper",
    "NfsTarget",
    "SweepConfig",
    "compression_sweep",
    "default_nodes",
    "transit_sweep",
    "__version__",
]
