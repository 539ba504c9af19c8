"""Semi-supervised population-mean estimation.

The library combines a labeled sample (outcome plus features) with a larger
unlabeled sample (features only).  Its main estimator fits a posterior over
regression functions on rotating training folds, corrects the imputation
bias of each sampled regression on held-out data, and aggregates the
per-fold Student-t convolution posteriors into a single posterior for the
mean.  Baselines (supervised-only and plain imputation), synthetic-data
experiments, and a CLI are included.

Each public name below is imported from its submodule on first use, so that
``import ssmean`` loads no numpy: the CLI loads numpy itself, with OpenBLAS
on one thread (see ``ssmean._blas``).
"""

import importlib

_EXPORTS = {
    "data": ("Dataset", "FoldPlan", "make_fold_plan", "validate_dataset"),
    "estimators": ("EstimationResult", "FoldPosterior", "bdmi_cf", "credible_interval",
                   "fold_posterior", "hbdmi_cf", "imputation_posterior",
                   "supervised_posterior"),
    "nuisance": ("GibbsConfig", "NuisancePosterior", "constant_nuisance", "fit_bols",
                 "fit_bridge", "fit_spike_slab", "make_fitter", "zero_nuisance"),
    "rng": ("GENERATOR_NAME", "RngStream"),
    "sampling": ("TComponent", "sample_convolution", "sample_quantile", "sample_student_t",
                 "sample_student_t_each"),
    "simulation": ("SimDesign", "SimulationResults", "emit_density_data", "generate_dataset",
                   "oracle_ore", "oracle_ore_star", "run_method", "run_methods",
                   "run_replications"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
