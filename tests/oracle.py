"""Reference code the tests hold the package against.

None of it ships in ``ppsrelax``: the fixed-step RK4 integrator that
cross-checks the spectral propagator, the mode <-> population maps, the
inverse of ``decompose_rows``, the linearized step with its window
check, and noisy spectra drawn through numpy's own ``default_rng``, the
streams that ``spectra.fit_noisy_doublets`` documents. Mode states are
float rows [3] (c1, c2, c12), as in the package.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ppsrelax.relaxation import RelaxationMatrix, check_initial_rate_window, linear_step
from ppsrelax.spins import PpsLabel

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
    m0,
    m_inf,
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
    base = np.asarray(m_inf, dtype=float)
    # deviations U^i d0 for i = 0..n_steps under the one-step update U, by
    # doubling: the first k deviations times (U^k)^T are the next k
    devs = (np.asarray(m0, dtype=float) - base)[None, :]
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


def modes_to_populations(m) -> Populations:
    """Diagonal (deviation-population) form of a mode row; traceless by
    construction."""
    c1, c2, c12 = (float(v) for v in m)
    return Populations(
        p00=(c1 + c2 + c12) / 2.0,
        p01=(c1 - c2 - c12) / 2.0,
        p10=(-c1 + c2 - c12) / 2.0,
        p11=(-c1 - c2 + c12) / 2.0,
    )


def populations_to_modes(p: Populations) -> np.ndarray:
    """Inverse of :func:`modes_to_populations` on the traceless subspace."""
    return np.array(
        (
            (p.p00 + p.p01 - p.p10 - p.p11) / 2.0,
            (p.p00 - p.p01 + p.p10 - p.p11) / 2.0,
            (p.p00 - p.p01 - p.p10 + p.p11) / 2.0,
        )
    )


def recompose(abc, label: PpsLabel) -> np.ndarray:
    """Mode row of the coefficient row (a, b, c): exact inverse of
    ``decompose_rows`` for the same label."""
    a, b, c = (float(v) for v in abc)
    s = label.sign_pattern
    return np.array((s.s1 * a + b, s.s2 * a + c, s.s12 * a))


def initial_rate(gamma: RelaxationMatrix, m0, m_inf, tau: float) -> np.ndarray:
    """Linearized (initial-rate) state M0 - G tau (M0 - M_inf) of one mode
    row: ``linear_step`` with the initial-rate window warning."""
    check_initial_rate_window(gamma.max_eigenvalue, tau)
    return linear_step(gamma.entries, m0, m_inf, tau)


def noisy_amps(amps, snr: float, seeds) -> np.ndarray:
    """A copy of the spectra ``amps`` [S, N] with white Gaussian noise of
    sd max|row| / ``snr`` added, row s's drawn from
    ``default_rng(seeds[s])``; ``snr=math.inf`` adds none."""
    amps = np.array(amps, dtype=float)
    if math.isinf(snr):
        return amps
    sd = np.abs(amps).max(axis=1) / snr
    for row, scale, seed in zip(amps, sd, seeds, strict=True):
        row += scale * np.random.default_rng(seed).standard_normal(row.size)
    return amps
