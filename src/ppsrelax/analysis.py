"""Decomposition of evolved states into pseudo-pure-state coefficients.

At any time a longitudinal state of the two-spin system can be written
as the surviving pseudo-pure combination (coefficient ``a``) plus
excesses of the two single-spin orders (``b`` for I1z, ``c`` for I2z).
For a freshly prepared state the triple is (k, 0, 0); relaxation lowers
``a`` and grows ``b`` and ``c``. The interference rates delta1/delta2
shift these deviations with a sign that depends on the state label,
which is what makes the four pseudo-pure states decay at four different
rates. Every command's trajectories are ``decompose_rows`` of the states
``relaxation.propagate`` returns; ``compare_pps`` gives them per state.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .relaxation import RelaxationMatrix, RelaxationRates, linear_step, propagate
from .spins import PpsLabel, SpinSystem, equilibrium_modes, mode_rows, pps_modes

__all__ = [
    "Deviation",
    "decompose_rows",
    "closed_form_auto",
    "closed_form_cross",
    "compare_pps",
]


class Deviation(NamedTuple):
    """Change of (a, b, c) relative to the fresh state (k, 0, 0)."""

    a: float
    b: float
    c: float


def decompose_rows(modes, label: PpsLabel | str) -> np.ndarray:
    """Coefficient rows (a, b, c) [..., 3] of mode rows [..., 3] read
    against a state label, a PpsLabel or its value ("00" to "11";
    ValueError otherwise).

    With sign pattern (s1, s2, s12): a = s12*c12, b = c1 - s1*a,
    c = c2 - s2*a.
    """
    modes = mode_rows(modes)
    s = PpsLabel(label).sign_pattern
    a = s.s12 * modes[..., 2]
    return np.stack((a, modes[..., 0] - s.s1 * a, modes[..., 1] - s.s2 * a), axis=-1)


#: Rate-matrix entries holding auto-correlation rates (rho, sigma12); the
#: others hold the interference rates delta1, delta2.
AUTO_BLOCK = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)


def _block_deviation(
    entries: np.ndarray, label: PpsLabel, sys: SpinSystem, tau: float
) -> Deviation:
    """Deviation of (a, b, c) from (k, 0, 0) after a linearized step
    under the rate block ``entries``."""
    m0 = pps_modes(label, sys)
    m_inf = equilibrium_modes(sys)
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


def compare_pps(
    gamma: RelaxationMatrix,
    sys: SpinSystem,
    times: Sequence[float],
    labels: Iterable[PpsLabel | str] = tuple(PpsLabel),
) -> dict[PpsLabel, np.ndarray]:
    """Exact (a, b, c) rows [T, 3] of each requested pseudo-pure state on
    a nonempty, strictly increasing 1-D grid of finite times, in a dict by
    state. A state is a PpsLabel or its value ("00" to "11"; ValueError
    otherwise); the keys are PpsLabel members."""
    times_arr = np.asarray(times, dtype=float)
    if times_arr.size == 0:
        raise ValueError("times must be nonempty")
    if times_arr.size > 1 and not np.all(np.diff(times_arr) > 0):
        raise ValueError("times must be strictly increasing")
    labels = tuple(map(PpsLabel, labels))
    m0 = [pps_modes(label, sys) for label in labels]
    states = propagate(gamma, m0, equilibrium_modes(sys), times_arr)
    return {label: decompose_rows(s, label) for label, s in zip(labels, states)}
