"""Longitudinal relaxation of two-spin pseudo-pure states.

The package separates the physics into small composable layers: mode
algebra (:mod:`ppsrelax.spins`), rate-matrix propagation
(:mod:`ppsrelax.relaxation`), coefficient analysis
(:mod:`ppsrelax.analysis`), the spectral measurement chain
(:mod:`ppsrelax.spectra`) and scenario execution
(:mod:`ppsrelax.scenario`).
"""

from .analysis import (
    CoefficientTriple,
    Deviation,
    DeviationReport,
    closed_form_auto,
    closed_form_cross,
    compare_pps,
    decompose,
    deviation_report,
    recompose,
)
from .relaxation import (
    InitialRateWindowWarning,
    NotPositiveDefiniteWarning,
    RelaxationMatrix,
    RelaxationRates,
    StepTooLarge,
    Trajectory,
    build_matrix,
    evolve_exact,
    evolve_ode,
    initial_rate,
    propagate,
)
from .scenario import (
    ConfigError,
    Scenario,
    SchemaMismatch,
    SweepSpec,
    default_pipeline_scenario,
    default_scenario,
    default_sweep,
    load_scenario,
    load_sweep,
    run_pipeline,
    run_report,
    run_simulate,
    run_sweep,
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
    NotTraceless,
    PopulationVector,
    PpsLabel,
    SignPattern,
    SpinSystem,
    equilibrium_modes,
    line_intensities,
    modes_to_populations,
    populations_to_modes,
    pps_modes,
)

__version__ = "0.1.0"
