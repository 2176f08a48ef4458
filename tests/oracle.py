"""Reference code the tests hold the package against.

None of it ships in ``ppsrelax``: the fixed-step RK4 integrator that
cross-checks the spectral propagator, the mode <-> population maps, the
inverse of ``decompose`` and a scalar form of the linearized step.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ppsrelax.analysis import CoefficientTriple
from ppsrelax.relaxation import RelaxationMatrix, check_initial_rate_window, linear_step
from ppsrelax.spins import ModeVector, PpsLabel

#: dt * lambda_max above which fixed-step RK4 accuracy is not guaranteed.
RK4_STEP_LIMIT = 0.1


def rk4_update_matrix(gamma: RelaxationMatrix, dt: float) -> np.ndarray:
    """Single-step update applied by classical RK4 to the deviation
    d = M - M_inf of this constant-coefficient linear system.

    For d' = A d the four stages combine to exactly
    d_next = (I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24) d,
    so the whole step is one matrix precomputable from G and dt.
    """
    ha = -dt * gamma.entries
    ha2 = ha @ ha
    return np.eye(3) + ha + ha2 / 2.0 + ha2 @ ha / 6.0 + ha2 @ ha2 / 24.0


def evolve_ode(
    gamma: RelaxationMatrix,
    m0: ModeVector,
    m_inf: ModeVector,
    t_end: float,
    dt: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step RK4 solution of dM/dt = -G (M - M_inf) as
    (times [n + 1], states [n + 1, 3]).

    Independent of the spectral route: only powers of G enter. Raises
    ValueError when dt * lambda_max exceeds the accuracy guard.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if t_end < dt:
        raise ValueError(f"t_end must be >= dt, got {t_end} < {dt}")
    if dt * gamma.max_eigenvalue > RK4_STEP_LIMIT:
        raise ValueError(
            f"dt * lambda_max = {dt * gamma.max_eigenvalue:.4g} exceeds "
            f"{RK4_STEP_LIMIT}"
        )
    n_steps = int(math.floor(t_end / dt + 1e-12))
    base = np.array(m_inf.to_tuple())
    # deviations U^i d0 for i = 0..n_steps under the one-step update U, by
    # doubling: the first k deviations times (U^k)^T are the next k
    devs = (np.array(m0.to_tuple()) - base)[None, :]
    power = rk4_update_matrix(gamma, dt)
    while len(devs) <= n_steps:
        devs = np.concatenate((devs, devs @ power.T))
        power = power @ power
    return np.arange(n_steps + 1) * dt, base + devs[: n_steps + 1]


class Populations(NamedTuple):
    """Deviation populations of the four levels, ordered 00, 01, 10, 11."""

    p00: float
    p01: float
    p10: float
    p11: float


def modes_to_populations(m: ModeVector) -> Populations:
    """Diagonal (deviation-population) form of a mode vector; traceless
    by construction."""
    return Populations(
        p00=(m.c1 + m.c2 + m.c12) / 2.0,
        p01=(m.c1 - m.c2 - m.c12) / 2.0,
        p10=(-m.c1 + m.c2 - m.c12) / 2.0,
        p11=(-m.c1 - m.c2 + m.c12) / 2.0,
    )


def populations_to_modes(p: Populations) -> ModeVector:
    """Inverse of :func:`modes_to_populations` on the traceless subspace."""
    return ModeVector(
        c1=(p.p00 + p.p01 - p.p10 - p.p11) / 2.0,
        c2=(p.p00 - p.p01 + p.p10 - p.p11) / 2.0,
        c12=(p.p00 - p.p01 - p.p10 + p.p11) / 2.0,
    )


def recompose(t: CoefficientTriple, label: PpsLabel) -> ModeVector:
    """Exact inverse of ``decompose`` for the same label."""
    s = label.sign_pattern
    return ModeVector(c1=s.s1 * t.a + t.b, c2=s.s2 * t.a + t.c, c12=s.s12 * t.a)


def initial_rate(
    gamma: RelaxationMatrix, m0: ModeVector, m_inf: ModeVector, tau: float
) -> ModeVector:
    """Linearized (initial-rate) state M0 - G tau (M0 - M_inf): scalar
    form of ``linear_step`` with the initial-rate window warning."""
    check_initial_rate_window(gamma, tau)
    state = linear_step(gamma.entries, m0.to_tuple(), m_inf.to_tuple(), tau)
    return ModeVector.from_sequence(state)
