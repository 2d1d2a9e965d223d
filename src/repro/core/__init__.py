"""Power modeling and DVFS tuning of lossy compressed I/O.

This is the paper's contribution: fit ``P(f) = a·f^b + c`` models to
measured power (Tables IV/V), pair them with leading-loads runtime
models, and derive frequency-tuning recommendations (Eqn. 3) that cut
I/O energy.
"""

from repro.core.samples import SampleSet
from repro.core.scaling import add_scaled_columns, scale_to_reference
from repro.core.regression import (
    PowerLawFit,
    fit_power_law,
    FittedModel,
    fit_best_model,
    CANDIDATE_MODELS,
)
from repro.core.power_model import PowerModel
from repro.core.runtime_model import RuntimeModel, fit_runtime_model
from repro.core.partitions import (
    Partition,
    COMPRESSION_PARTITIONS,
    TRANSIT_PARTITIONS,
    fit_partition_models,
)
from repro.core.tuning import (
    PAPER_POLICY,
    TuningPolicy,
    TuningRecommendation,
    recommend_from_models,
)
from repro.core.energy import (
    energy_joules,
    savings_fraction,
    SavingsReport,
    compare_reports,
)
from repro.core.objectives import Objective, objective_curve, optimal_frequency
from repro.core.persistence import ModelBundle
from repro.core.advisor import BoundProfile, ErrorBoundAdvisor
from repro.core.breakeven import (
    StrategyOutcome,
    breakeven_bandwidth_bps,
    breakeven_clients,
    compare_strategies,
)
from repro.core.uncertainty import BootstrapResult, ParameterInterval, bootstrap_power_fit
from repro.core.multicore import (
    CoreFreqPoint,
    optimal_configuration,
    pareto_front,
    sweep_configurations,
)
from repro.core.impact import GridProfile, ImpactReport, US_AVERAGE_GRID, impact_of
from repro.core.service import StageDecision, TuningService
from repro.core.pipeline import TunedIOPipeline, PipelineOutcome

__all__ = [
    "SampleSet",
    "add_scaled_columns",
    "scale_to_reference",
    "PowerLawFit",
    "fit_power_law",
    "FittedModel",
    "fit_best_model",
    "CANDIDATE_MODELS",
    "PowerModel",
    "RuntimeModel",
    "fit_runtime_model",
    "Partition",
    "COMPRESSION_PARTITIONS",
    "TRANSIT_PARTITIONS",
    "fit_partition_models",
    "PAPER_POLICY",
    "TuningPolicy",
    "TuningRecommendation",
    "recommend_from_models",
    "energy_joules",
    "savings_fraction",
    "SavingsReport",
    "compare_reports",
    "Objective",
    "objective_curve",
    "optimal_frequency",
    "ModelBundle",
    "BoundProfile",
    "ErrorBoundAdvisor",
    "StrategyOutcome",
    "breakeven_bandwidth_bps",
    "breakeven_clients",
    "compare_strategies",
    "BootstrapResult",
    "ParameterInterval",
    "bootstrap_power_fit",
    "CoreFreqPoint",
    "optimal_configuration",
    "pareto_front",
    "sweep_configurations",
    "GridProfile",
    "ImpactReport",
    "US_AVERAGE_GRID",
    "impact_of",
    "StageDecision",
    "TuningService",
    "TunedIOPipeline",
    "PipelineOutcome",
]
