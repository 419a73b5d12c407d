"""Peaks-over-threshold extreme value analysis for solar X-ray flare fluxes.

The package covers the full chain from raw minute-cadence flux files to
return-level estimates with confidence intervals: ingestion and
conditioning (:mod:`flarevt.ingest`), runs declustering into independent
flare events (:mod:`flarevt.decluster`), generalized Pareto fitting of
threshold excesses (:mod:`flarevt.gpd`), threshold and goodness-of-fit
diagnostics (:mod:`flarevt.diagnostics`), return levels and periods
(:mod:`flarevt.returns`), and a reproducible pipeline with a CLI
(:mod:`flarevt.pipeline`, :mod:`flarevt.cli`).
"""

__version__ = "0.1.0"

from .decluster import (EventCatalog, GapSweepCurve, decluster, gap_sweep,
                        lag1_autocorrelation)
from .diagnostics import (MrlCurve, ProbabilityPlot, mean_excess_curve,
                          probability_plot)
from .errors import (CiUnavailableError, ConvergenceError, DomainError,
                     EmptyInputError, FlareVtError, InfiniteReturnError,
                     InsufficientDataError, OrderingError, ParseError,
                     PipelineStageError, ZeroVarianceError)
from .gpd import (FitConvergence, GpdFit, GpdParams, fit_gpd, gpd_cdf,
                  gpd_loglik, gpd_mean_excess, gpd_quantile, gpd_sample)
from .ingest import (FluxSeries, IngestConfig, apply_scaling, filter_saturation,
                     parse_flux_csv, read_flux_csv, synth_clustered_series,
                     write_flux_csv)
from .pipeline import InputSpec, PipelineConfig, run_pipeline
from .returns import (ObservationCalendar, ReturnLevelCurve,
                      ReturnLevelInterval, SubThresholdReturnWarning,
                      return_curve, return_level, return_level_ci,
                      return_period, return_period_band)

__all__ = [
    "__version__",
    # ingest
    "FluxSeries", "IngestConfig", "parse_flux_csv", "read_flux_csv",
    "write_flux_csv", "apply_scaling", "filter_saturation",
    "synth_clustered_series",
    # decluster
    "EventCatalog", "GapSweepCurve", "decluster",
    "lag1_autocorrelation", "gap_sweep",
    # gpd
    "GpdParams", "GpdFit", "FitConvergence", "gpd_cdf", "gpd_quantile",
    "gpd_loglik", "gpd_sample", "gpd_mean_excess", "fit_gpd",
    # diagnostics
    "MrlCurve", "ProbabilityPlot", "mean_excess_curve", "probability_plot",
    # returns
    "ObservationCalendar", "ReturnLevelInterval", "ReturnLevelCurve",
    "SubThresholdReturnWarning", "return_level", "return_period",
    "return_level_ci", "return_curve", "return_period_band",
    # pipeline
    "PipelineConfig", "InputSpec", "run_pipeline",
    # errors
    "FlareVtError", "ParseError", "OrderingError", "EmptyInputError",
    "DomainError", "InsufficientDataError", "ZeroVarianceError",
    "ConvergenceError", "CiUnavailableError", "InfiniteReturnError",
    "PipelineStageError",
]
