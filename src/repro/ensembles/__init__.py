"""The ensemble methodology: from performance events to ensembles."""

from .analysis import AnalysisReport, OpEnsemble, PhaseSummary, analyze, format_analysis
from .compare import EnsembleComparison, compare_ensembles, match_modes
from .diagnose import Finding, diagnose
from .distribution import EmpiricalDistribution, Moments
from .histogram import (
    HistogramResult,
    linear_histogram,
    log_histogram,
    rate_histogram,
)
from .lln import LlnPrediction, narrowing_report, per_task_totals, predict_sum
from .locate import (
    MaskedFault,
    OstSuspect,
    RebuildPressure,
    TransientFault,
    find_masked_faults,
    find_rebuild_pressure,
    find_slow_osts,
    find_transient_faults,
    ost_ensembles,
)
from .modes import HarmonicStructure, Mode, detect_modes, harmonics
from .oracle import (
    CONFIRMED,
    CONTRADICTED,
    UNVERIFIED,
    OracleReport,
    OracleVerdict,
    verify_finding,
    verify_findings,
    verify_masked,
    verify_rebuilds,
    verify_slow_osts,
    verify_transients,
)
from .plots import plot_cdfs, plot_curve, plot_histogram, plot_rate_curve
from .order_stats import (
    expected_max,
    max_quantile,
    nth_order_density,
    predict_phase_time,
    step_sharpness,
)
from .progress import ProgressCurve, deterioration_trend, phase_progress
from .segmentation import segment_by_gaps, segment_by_generation, strip_labels
from .timeseries import RateCurve, aggregate_rate, plateaus
from .tracevis import TraceDiagram, render, trace_diagram

__all__ = [
    "AnalysisReport",
    "OpEnsemble",
    "PhaseSummary",
    "analyze",
    "format_analysis",
    "EnsembleComparison",
    "compare_ensembles",
    "match_modes",
    "Finding",
    "diagnose",
    "EmpiricalDistribution",
    "Moments",
    "HistogramResult",
    "linear_histogram",
    "log_histogram",
    "rate_histogram",
    "OstSuspect",
    "TransientFault",
    "MaskedFault",
    "RebuildPressure",
    "find_slow_osts",
    "find_transient_faults",
    "find_masked_faults",
    "find_rebuild_pressure",
    "ost_ensembles",
    "LlnPrediction",
    "narrowing_report",
    "per_task_totals",
    "predict_sum",
    "HarmonicStructure",
    "Mode",
    "detect_modes",
    "harmonics",
    "CONFIRMED",
    "CONTRADICTED",
    "UNVERIFIED",
    "OracleReport",
    "OracleVerdict",
    "verify_finding",
    "verify_findings",
    "verify_masked",
    "verify_rebuilds",
    "verify_slow_osts",
    "verify_transients",
    "plot_cdfs",
    "plot_curve",
    "plot_histogram",
    "plot_rate_curve",
    "expected_max",
    "max_quantile",
    "nth_order_density",
    "predict_phase_time",
    "step_sharpness",
    "ProgressCurve",
    "segment_by_gaps",
    "segment_by_generation",
    "strip_labels",
    "deterioration_trend",
    "phase_progress",
    "RateCurve",
    "aggregate_rate",
    "plateaus",
    "TraceDiagram",
    "render",
    "trace_diagram",
]
