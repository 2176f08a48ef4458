"""Decomposition of evolved states into pseudo-pure-state coefficients.

At any time a longitudinal state of the two-spin system can be written
as the surviving pseudo-pure combination (coefficient ``a``) plus
excesses of the two single-spin orders (``b`` for I1z, ``c`` for I2z).
For a freshly prepared state the triple is (k, 0, 0); relaxation lowers
``a`` and grows ``b`` and ``c``. The interference rates delta1/delta2
shift these deviations with a sign that depends on the state label,
which is what makes the four pseudo-pure states decay at four different
rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .relaxation import RelaxationMatrix, RelaxationRates, linear_step, propagate
from .spins import ModeVector, PpsLabel, SpinSystem, equilibrium_modes, pps_modes

__all__ = [
    "CoefficientTriple",
    "Deviation",
    "PpsComparison",
    "decompose_rows",
    "decompose",
    "closed_form_auto",
    "closed_form_cross",
    "compare_pps",
]


@dataclass(frozen=True)
class CoefficientTriple:
    """Pseudo-pure coefficient ``a`` and single-spin excesses ``b``, ``c``,
    in mode units."""

    a: float
    b: float
    c: float


class Deviation(NamedTuple):
    """Change of (a, b, c) relative to the fresh state (k, 0, 0)."""

    a: float
    b: float
    c: float


def decompose_rows(modes, label: PpsLabel) -> np.ndarray:
    """Coefficient rows (a, b, c) [..., 3] of mode rows [..., 3] read
    against a state label.

    With sign pattern (s1, s2, s12): a = s12*c12, b = c1 - s1*a,
    c = c2 - s2*a.
    """
    modes = np.asarray(modes, dtype=float)
    s = label.sign_pattern
    a = s.s12 * modes[..., 2]
    return np.stack((a, modes[..., 0] - s.s1 * a, modes[..., 1] - s.s2 * a), axis=-1)


def decompose(m: ModeVector, label: PpsLabel) -> CoefficientTriple:
    """Scalar form of :func:`decompose_rows`."""
    a, b, c = decompose_rows(m.to_tuple(), label).tolist()
    return CoefficientTriple(a=a, b=b, c=c)


#: Rate-matrix entries holding auto-correlation rates (rho, sigma12); the
#: others hold the interference rates delta1, delta2.
AUTO_BLOCK = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)


def _block_deviation(
    entries: np.ndarray, label: PpsLabel, sys: SpinSystem, tau: float
) -> Deviation:
    """Deviation of (a, b, c) from (k, 0, 0) after a linearized step
    under the rate block ``entries``."""
    m0 = pps_modes(label, sys).to_tuple()
    m_inf = equilibrium_modes(sys).to_tuple()
    a, b, c = decompose_rows(linear_step(entries, m0, m_inf, tau), label).tolist()
    return Deviation(a - sys.k, b, c)


def closed_form_auto(
    label: PpsLabel, rates: RelaxationRates, sys: SpinSystem, tau: float
) -> Deviation:
    """Initial-rate deviation from auto-correlation rates alone
    (delta1 = delta2 = 0)."""
    return _block_deviation(np.where(AUTO_BLOCK, rates.matrix(), 0.0), label, sys, tau)


def closed_form_cross(
    label: PpsLabel, rates: RelaxationRates, sys: SpinSystem, tau: float
) -> Deviation:
    """Initial-rate deviation from the interference rates alone
    (rho = sigma = 0 in the rate block)."""
    return _block_deviation(np.where(AUTO_BLOCK, 0.0, rates.matrix()), label, sys, tau)


@dataclass(frozen=True)
class PpsComparison:
    """Mode and coefficient trajectories of several pseudo-pure states on
    a shared time grid. ``states`` holds the mode rows [L, T, 3] of the L
    requested states in request order, and ``coefficients`` maps each
    state to its (a, b, c) rows [T, 3]."""

    times: np.ndarray
    states: np.ndarray
    coefficients: dict[PpsLabel, np.ndarray]
    k: float

    def a(self, label: PpsLabel) -> np.ndarray:
        return self.coefficients[label][:, 0]

    def b(self, label: PpsLabel) -> np.ndarray:
        return self.coefficients[label][:, 1]

    def c(self, label: PpsLabel) -> np.ndarray:
        return self.coefficients[label][:, 2]


def compare_pps(
    gamma: RelaxationMatrix,
    sys: SpinSystem,
    times: Sequence[float],
    labels: Iterable[PpsLabel] = tuple(PpsLabel),
) -> PpsComparison:
    """Exact mode and (a, b, c) trajectories of the requested pseudo-pure
    states."""
    times_arr = np.asarray(times, dtype=float)
    if times_arr.size == 0:
        raise ValueError("times must be nonempty")
    if times_arr.size > 1 and not np.all(np.diff(times_arr) > 0):
        raise ValueError("times must be strictly increasing")
    labels = tuple(labels)
    m0 = [pps_modes(label, sys).to_tuple() for label in labels]
    states = propagate(gamma, m0, equilibrium_modes(sys).to_tuple(), times_arr)
    coefficients = {label: decompose_rows(s, label) for label, s in zip(labels, states)}
    return PpsComparison(times=times_arr, states=states, coefficients=coefficients, k=sys.k)
