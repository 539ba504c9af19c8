"""Semi-supervised population-mean estimation.

The library combines a labeled sample (outcome plus features) with a larger
unlabeled sample (features only).  Its main estimator fits a posterior over
regression functions on rotating training folds, corrects the imputation
bias of each sampled regression on held-out data, and aggregates the
per-fold Student-t convolution posteriors into a single posterior for the
mean.  Baselines (supervised-only and plain imputation), synthetic-data
experiments, and a CLI are included.
"""

from .data import Dataset, FoldPlan, make_fold_plan, validate_dataset
from .estimators import (
    EstimationResult,
    FoldPosterior,
    bdmi_cf,
    credible_interval,
    fold_posterior,
    hbdmi_cf,
    imputation_posterior,
    supervised_posterior,
)
from .nuisance import (
    GibbsConfig,
    NuisancePosterior,
    constant_nuisance,
    fit_bols,
    fit_bridge,
    fit_spike_slab,
    make_fitter,
    zero_nuisance,
)
from .rng import GENERATOR_NAME, RngStream
from .sampling import (
    TComponent,
    sample_convolution,
    sample_quantile,
    sample_student_t,
    sample_student_t_each,
)
from .simulation import (
    SimDesign,
    SimulationResults,
    emit_density_data,
    generate_dataset,
    mc_oracle_variances,
    oracle_ore,
    oracle_ore_star,
    run_method,
    run_methods,
    run_replications,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EstimationResult",
    "FoldPlan",
    "FoldPosterior",
    "GENERATOR_NAME",
    "GibbsConfig",
    "NuisancePosterior",
    "RngStream",
    "SimDesign",
    "SimulationResults",
    "TComponent",
    "bdmi_cf",
    "constant_nuisance",
    "credible_interval",
    "emit_density_data",
    "fit_bols",
    "fit_bridge",
    "fit_spike_slab",
    "fold_posterior",
    "generate_dataset",
    "hbdmi_cf",
    "imputation_posterior",
    "make_fitter",
    "make_fold_plan",
    "mc_oracle_variances",
    "oracle_ore",
    "oracle_ore_star",
    "run_method",
    "run_methods",
    "run_replications",
    "sample_convolution",
    "sample_quantile",
    "sample_student_t",
    "sample_student_t_each",
    "supervised_posterior",
    "validate_dataset",
    "zero_nuisance",
]
