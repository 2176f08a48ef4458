"""Longitudinal relaxation of two-spin pseudo-pure states.

The package separates the physics into small composable layers: mode
algebra (:mod:`ppsrelax.spins`), rate-matrix propagation
(:mod:`ppsrelax.relaxation`), coefficient analysis
(:mod:`ppsrelax.analysis`), the spectral measurement chain
(:mod:`ppsrelax.spectra`), typed configs (:mod:`ppsrelax.scenario`),
the runners and their CSV format (:mod:`ppsrelax.run`) and the CSV
summaries (:mod:`ppsrelax.report`).

``import ppsrelax`` loads no layer: each is imported on the first use of
one of its names, so the ``simulate`` and ``sweep`` commands never load
the spectral chain, the report or the SVG writer.
"""

import importlib

__version__ = "0.1.0"

#: Home layer of each public name.
_HOMES = {
    name: module
    for module, names in (
        ("analysis", "Deviation closed_form_auto closed_form_cross compare_pps"),
        (
            "relaxation",
            "InconsistentEquilibrium InitialRateWindowWarning NotConverged "
            "NotPositiveDefiniteWarning RelaxationMatrix RelaxationRates "
            "build_matrix propagate",
        ),
        ("report", "run_report"),
        ("run", "SchemaMismatch run_pipeline run_simulate run_sweep"),
        (
            "scenario",
            "ConfigError Scenario SweepSpec default_pipeline_scenario "
            "default_scenario default_sweep load_scenario load_sweep",
        ),
        ("spectra", "GridTooCoarse"),
        ("spins", "PpsLabel SpinSystem equilibrium_modes pps_modes"),
    )
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    """A public name, or a layer by its module name, imported on first use
    (PEP 562)."""
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _HOMES.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
