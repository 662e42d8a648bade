"""Experiment drivers: one module per paper figure (plus inline claims).

Every module exposes ``run(scale=...) -> ExperimentResult`` and
``main(scale=...) -> str`` (the printable rows/series).  Run them all,
their simulations spread over worker processes by :mod:`repro.sweep`:

    python -m repro.experiments            # paper scale
    python -m repro.experiments small      # reduced scale
    python -m repro.experiments tiny fig1 --workers 2 --save DIR --store DB
"""

from . import (
    fig1_ior_modes,
    fig2_lln,
    fig4_madbench,
    fig5_patch,
    fig6_gcrm,
    fig_erasure,
    fig_failover,
    fig_faults,
    fig_interference,
    fig_selfheal,
    fig_telemetry,
    saturation,
)
from .runner import SCALES, ExperimentResult, format_table

ALL_EXPERIMENTS = {
    "fig1": fig1_ior_modes,
    "fig2": fig2_lln,
    "fig4": fig4_madbench,
    "fig5": fig5_patch,
    "fig6": fig6_gcrm,
    "saturation": saturation,
    "faults": fig_faults,
    "failover": fig_failover,
    "erasure": fig_erasure,
    "telemetry": fig_telemetry,
    "interference": fig_interference,
    "selfheal": fig_selfheal,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "SCALES",
    "ExperimentResult",
    "format_table",
    "fig1_ior_modes",
    "fig2_lln",
    "fig4_madbench",
    "fig5_patch",
    "fig6_gcrm",
    "fig_erasure",
    "fig_failover",
    "fig_faults",
    "fig_interference",
    "fig_selfheal",
    "fig_telemetry",
    "saturation",
]
