"""Longitudinal relaxation of two-spin pseudo-pure states.

The package separates the physics into small composable layers: mode
algebra (:mod:`ppsrelax.spins`), rate-matrix propagation
(:mod:`ppsrelax.relaxation`), coefficient analysis
(:mod:`ppsrelax.analysis`), the spectral measurement chain
(:mod:`ppsrelax.spectra`), typed configs (:mod:`ppsrelax.scenario`),
the runners and their CSV format (:mod:`ppsrelax.run`) and the CSV
summaries (:mod:`ppsrelax.report`).
"""

from .analysis import (
    CoefficientTriple,
    Deviation,
    closed_form_auto,
    closed_form_cross,
    compare_pps,
    decompose,
)
from .relaxation import (
    InitialRateWindowWarning,
    NotPositiveDefiniteWarning,
    RelaxationMatrix,
    RelaxationRates,
    build_matrix,
    evolve_exact,
    propagate,
)
from .report import run_report
from .run import SchemaMismatch, run_pipeline, run_simulate, run_sweep
from .scenario import (
    ConfigError,
    Scenario,
    SweepSpec,
    default_pipeline_scenario,
    default_scenario,
    default_sweep,
    load_scenario,
    load_sweep,
)
from .spectra import (
    DoubletFit,
    GridTooCoarse,
    InconsistentEquilibrium,
    LinePeak,
    NormalizedCoefficients,
    NotConverged,
    Spectrum,
    add_noise,
    coefficients_from_fits,
    fit_doublet,
    synthesize,
)
from .spins import (
    LineIntensities,
    ModeVector,
    PpsLabel,
    SpinSystem,
    equilibrium_modes,
    line_intensities,
    pps_modes,
)

__version__ = "0.1.0"
