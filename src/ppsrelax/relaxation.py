"""Relaxation of the three longitudinal modes of a two-spin system.

The mode vector M = (I1z, I2z, 2*I1z*I2z) obeys

    dM/dt = -G (M - M_inf)

with a symmetric 3x3 rate matrix

    G = [[rho1,   sigma12, delta1],
         [sigma12, rho2,   delta2],
         [delta1,  delta2, rho12]]

whose diagonal holds the self-relaxation rates, sigma12 the
cross-relaxation (NOE) rate between the single-spin orders, and
delta1/delta2 the interference rates coupling each single-spin order to
the two-spin order. With delta1 = delta2 = 0 the matrix is block
diagonal and the two-spin order decays as a bare exponential.

States are propagated on one route, the spectral decomposition of G
(``propagate``, on mode rows [..., 3]), its products summed in numpy in
one fixed order. The fixed-step RK4 cross-check that the tests hold it
against lives in ``tests/oracle.py``, outside the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, fields

import numpy as np

from .spins import mode_rows

__all__ = [
    "RelaxationRates",
    "RelaxationMatrix",
    "NotPositiveDefiniteWarning",
    "InitialRateWindowWarning",
    "NotConverged",
    "InconsistentEquilibrium",
    "rate_matrix",
    "invalid_rates",
    "diagonalize",
    "build_matrix",
    "propagate",
    "linear_step",
    "check_positive_definite",
    "check_initial_rate_window",
]

#: tau * lambda_max beyond which the linearized evolution leaves the
#: initial-rate regime.
INITIAL_RATE_WINDOW = 0.2


class NotPositiveDefiniteWarning(UserWarning):
    """The assembled rate matrix has a non-positive eigenvalue."""


class InitialRateWindowWarning(UserWarning):
    """Linearized evolution requested outside the initial-rate window."""


# The spectral chain's failures, defined here so that the CLI can catch
# them without loading ppsrelax.spectra, which re-exports them.
class NotConverged(RuntimeError):
    """A doublet fit the run cannot do without did not converge."""


class InconsistentEquilibrium(ValueError):
    """Equilibrium doublet lines differ by more than the accepted asymmetry."""


@dataclass(frozen=True)
class RelaxationRates:
    """The six independent entries of the rate matrix, all in 1/s."""

    rho1: float
    rho2: float
    rho12: float
    sigma12: float
    delta1: float = 0.0
    delta2: float = 0.0

    def __post_init__(self):
        error = invalid_rates(astuple(self))
        if error is not None:
            raise ValueError(error[1])

    def matrix(self) -> np.ndarray:
        return rate_matrix(astuple(self))


#: Rate names in the column order of rate tables (``RelaxationRates`` order).
RATE_FIELDS = tuple(f.name for f in fields(RelaxationRates))

#: Rate-table column feeding each entry of the 3x3 rate matrix.
_LAYOUT = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
#: Columns of the self-relaxation rates, the diagonal of the matrix.
_SELF_RATES = np.isin(np.arange(len(RATE_FIELDS)), np.diag(_LAYOUT))


def rate_matrix(table) -> np.ndarray:
    """Symmetric rate matrices [..., 3, 3] from rate rows [..., 6] given in
    ``RATE_FIELDS`` order."""
    return np.asarray(table, dtype=float)[..., _LAYOUT]


def invalid_rates(table) -> tuple[int, str] | None:
    """First rate row of ``table`` ([6] or [N, 6], ``RATE_FIELDS`` order)
    with a non-finite rate or a self-relaxation rate <= 0, as (row index,
    message); None when every row is admissible."""
    table = np.asarray(table, dtype=float).reshape(-1, len(RATE_FIELDS))
    bad = ~np.isfinite(table) | (_SELF_RATES & (table <= 0))
    if not bad.any():
        return None
    row, col = (int(i) for i in np.argwhere(bad)[0])
    if math.isfinite(table[row, col]):
        return row, f"self-relaxation rate {RATE_FIELDS[col]} must be > 0"
    return row, f"{RATE_FIELDS[col]} must be finite"


@dataclass(frozen=True)
class RelaxationMatrix:
    """Symmetric rate matrix together with its spectral decomposition.

    ``entries`` is the 3x3 matrix, ``eigenvalues`` its eigenvalues in
    ascending order and ``eigenvectors`` the matching orthonormal columns.
    All three arrays may carry the same leading batch dimensions (a stack
    of matrices); ``min_eigenvalue`` and ``max_eigenvalue`` then cover the
    whole stack, and the stack is positive definite when
    ``min_eigenvalue`` > 0.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        for arr in (self.entries, self.eigenvalues, self.eigenvectors):
            arr.setflags(write=False)

    @property
    def min_eigenvalue(self) -> float:
        return float(np.min(self.eigenvalues[..., 0]))

    @property
    def max_eigenvalue(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))


def diagonalize(entries: np.ndarray) -> RelaxationMatrix:
    """Spectral decomposition of symmetric rate matrices [..., 3, 3].

    A matrix with a non-positive eigenvalue does not warn here, so that a
    caller diagonalizing a stack in parts can warn once for all of them
    (``check_positive_definite``).
    """
    return RelaxationMatrix(entries, *np.linalg.eigh(entries))


def build_matrix(rates: RelaxationRates) -> RelaxationMatrix:
    """Assemble and diagonalize the symmetric rate matrix; warns as
    ``check_positive_definite`` does."""
    gamma = diagonalize(rates.matrix())
    check_positive_definite(gamma.min_eigenvalue)
    return gamma


def check_positive_definite(lowest: float) -> None:
    """Emit NotPositiveDefiniteWarning when ``lowest``, the lowest
    eigenvalue of one or more rate matrices, is <= 0; such matrices still
    propagate, they just do not decay monotonically to equilibrium."""
    if not lowest > 0.0:
        warnings.warn(
            f"rate matrix is not positive definite (min eigenvalue "
            f"{lowest:.6g} 1/s)",
            NotPositiveDefiniteWarning,
            stacklevel=3,
        )


def _product(matrices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """M r [..., 3] of matrices [..., 3, 3] and rows [..., 3], summed in one
    fixed order; matmul goes to BLAS, which rounds per kernel and row count."""
    terms = rows[..., None, :] * matrices  # M[i, j] r[j]
    return terms[..., 0] + terms[..., 1] + terms[..., 2]


def _finite_rows(name: str, modes) -> np.ndarray:
    """``spins.mode_rows(modes)``, or ValueError naming ``name`` when a
    value is NaN or inf."""
    modes = mode_rows(modes)
    if not np.isfinite(modes).all():
        raise ValueError(f"{name} must be finite")
    return modes


def propagate(gamma: RelaxationMatrix, m0, m_inf, times) -> np.ndarray:
    """Closed-form states M_inf + exp(-G t) (M0 - M_inf) on a time grid.

    ``m0`` holds initial mode rows [..., 3], ``m_inf`` the equilibrium
    row [3] and ``times`` the sample times [T] (finite, >= 0), ValueError
    otherwise, as for a NaN or inf in ``m0`` or ``m_inf``; the result has
    shape [..., T, 3]. A stacked ``gamma`` broadcasts its batch dimensions
    against the leading dimensions of ``m0``. The exponential is taken in
    the eigenbasis of G; rows at t = 0 are exactly ``m0``. With products
    summed in one fixed order, a state depends neither on the times and
    matrices the call holds nor on the BLAS kernel. Raises FloatingPointError
    when a state overflows, as for a non-positive-definite G at long times.
    """
    m0, m_inf = _finite_rows("m0", m0), _finite_rows("m_inf", m_inf)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.isfinite(times).all():
        raise ValueError("times must be a 1-D grid of finite values")
    if (times < 0).any():
        raise ValueError(f"t must be >= 0, got {times.min()}")
    weights = _product(gamma.eigenvectors.swapaxes(-1, -2), m0 - m_inf)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = weights[..., None, :] * np.exp(-times[:, None] * gamma.eigenvalues[..., None, :])
        out = m_inf + _product(gamma.eigenvectors[..., None, :, :], scaled)
    out[..., times == 0, :] = m0[..., None, :]
    if not np.isfinite(out).all():
        raise FloatingPointError(
            "propagated state is not finite (rate matrix min eigenvalue "
            f"{float(np.min(gamma.eigenvalues)):.6g} 1/s)"
        )
    return out


def linear_step(entries: np.ndarray, m0, m_inf, tau: float) -> np.ndarray:
    """Linearized state M0 - tau E (M0 - M_inf) under rate blocks E.

    ``entries`` [..., 3, 3] broadcasts against the mode rows ``m0``
    [..., 3]; ``m_inf`` is one row [3]. Both must be finite, and ``tau``
    finite and >= 0 (ValueError otherwise). The result is linear in E, so
    masking E to a block of rates isolates that block's contribution.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    m0, m_inf = _finite_rows("m0", m0), _finite_rows("m_inf", m_inf)
    return m0 - tau * _product(entries, m0 - m_inf)


def check_initial_rate_window(lambda_max: float, tau: float) -> None:
    """Warn when tau * lambda_max > 0.2, i.e. outside the regime where the
    decay or growth of every mode is linear in time; ``lambda_max`` is the
    largest |eigenvalue| of one or more rate matrices."""
    if tau * lambda_max > INITIAL_RATE_WINDOW:
        warnings.warn(
            f"tau * lambda_max = {tau * lambda_max:.4g} is outside "
            f"the initial-rate window ({INITIAL_RATE_WINDOW})",
            InitialRateWindowWarning,
            stacklevel=3,
        )
