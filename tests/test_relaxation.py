import math

import numpy as np
import pytest

from oracle import evolve_ode, initial_rate
from ppsrelax.relaxation import (
    InitialRateWindowWarning,
    NotPositiveDefiniteWarning,
    RelaxationRates,
    build_matrix,
    propagate,
)
from ppsrelax.spins import SpinSystem, equilibrium_modes

# rate set used throughout: the two-spin sample values with adjustable
# interference entries
BASE = dict(rho1=0.3125, rho2=0.33, rho12=0.33, sigma12=0.02)

M_INF = np.array((0.9407, 1.0, 0.0))


def sample_rates(delta1=0.0, delta2=0.0):
    return RelaxationRates(delta1=delta1, delta2=delta2, **BASE)


def random_positive_definite(rng):
    """Random admissible rate matrix (positive definite by construction)."""
    while True:
        rates = RelaxationRates(
            rho1=rng.uniform(0.05, 1.0),
            rho2=rng.uniform(0.05, 1.0),
            rho12=rng.uniform(0.05, 1.0),
            sigma12=rng.uniform(-0.2, 0.2),
            delta1=rng.uniform(-0.2, 0.2),
            delta2=rng.uniform(-0.2, 0.2),
        )
        entries = np.array(
            [
                [rates.rho1, rates.sigma12, rates.delta1],
                [rates.sigma12, rates.rho2, rates.delta2],
                [rates.delta1, rates.delta2, rates.rho12],
            ]
        )
        if np.all(np.linalg.eigvalsh(entries) > 1e-3):
            return rates


def staged_rk4(entries, m0, m_inf, t_end, dt):
    """Textbook four-stage RK4 on dM/dt = -G (M - M_inf); reference for
    the oracle's one-matrix integrator."""
    def deriv(m):
        return -entries @ (m - m_inf)

    n = int(round(t_end / dt))
    m = np.array(m0, dtype=float)
    out = [m.copy()]
    for _ in range(n):
        k1 = deriv(m)
        k2 = deriv(m + 0.5 * dt * k1)
        k3 = deriv(m + 0.5 * dt * k2)
        k4 = deriv(m + dt * k3)
        m = m + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(m.copy())
    return np.array(out)


def test_build_matrix_layout():
    gamma = build_matrix(sample_rates())
    np.testing.assert_allclose(
        gamma.entries,
        [[0.3125, 0.02, 0.0], [0.02, 0.33, 0.0], [0.0, 0.0, 0.33]],
        rtol=0,
        atol=0,
    )


def test_build_matrix_is_exactly_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rates = random_positive_definite(rng)
        gamma = build_matrix(rates)
        assert np.array_equal(gamma.entries, gamma.entries.T)


def test_diagonal_rates_give_diagonal_eigenvalues():
    gamma = build_matrix(
        RelaxationRates(rho1=0.3125, rho2=0.33, rho12=0.4, sigma12=0.0)
    )
    np.testing.assert_allclose(
        np.sort(gamma.eigenvalues), [0.3125, 0.33, 0.4], atol=1e-14
    )


def test_no_interference_block_eigenvalues():
    # frozen from the closed form (rho1+rho2)/2 +- sqrt(((rho1-rho2)/2)^2
    # + sigma^2) with the third eigenvalue rho12
    gamma = build_matrix(sample_rates())
    expected = [0.2994196885042838, 0.33, 0.3430803114957163]
    np.testing.assert_allclose(gamma.eigenvalues, expected, atol=1e-12)


def test_eigendecomposition_reconstructs_matrix():
    rng = np.random.default_rng(1)
    for _ in range(20):
        gamma = build_matrix(random_positive_definite(rng))
        rebuilt = gamma.eigenvectors @ np.diag(gamma.eigenvalues) @ gamma.eigenvectors.T
        err = np.linalg.norm(rebuilt - gamma.entries) / np.linalg.norm(gamma.entries)
        assert err < 1e-12


def test_eigenvectors_orthonormal():
    rng = np.random.default_rng(2)
    for _ in range(20):
        gamma = build_matrix(random_positive_definite(rng))
        identity = gamma.eigenvectors.T @ gamma.eigenvectors
        assert np.linalg.norm(identity - np.eye(3)) < 1e-12


def test_build_warns_when_not_positive_definite():
    rates = RelaxationRates(
        rho1=0.1, rho2=0.1, rho12=0.1, sigma12=0.0, delta1=0.5, delta2=0.0
    )
    with pytest.warns(NotPositiveDefiniteWarning):
        gamma = build_matrix(rates)
    assert gamma.min_eigenvalue <= 0


def test_rates_validation():
    with pytest.raises(ValueError):
        RelaxationRates(rho1=0.0, rho2=0.3, rho12=0.3, sigma12=0.0)
    with pytest.raises(ValueError):
        RelaxationRates(rho1=0.3, rho2=0.3, rho12=0.3, sigma12=math.nan)


def test_evolve_exact_identity_at_t0():
    gamma = build_matrix(sample_rates(0.15, 0.05))
    m0 = np.array((0.5, 0.5, 0.5))
    assert propagate(gamma, m0, M_INF, (0.0, 1.0))[0].tolist() == m0.tolist()


def test_evolve_exact_decoupled_two_spin_order():
    # with no interference rates the two-spin order is a bare exponential
    gamma = build_matrix(sample_rates())
    m0 = (M_INF[0], M_INF[1], 1.0)
    c1, c2, c12 = propagate(gamma, m0, M_INF, (1.0,))[0]
    assert c12 == pytest.approx(math.exp(-0.33), abs=1e-12)
    assert c1 == pytest.approx(M_INF[0], abs=1e-12)
    assert c2 == pytest.approx(M_INF[1], abs=1e-12)


def test_evolve_exact_reaches_equilibrium():
    gamma = build_matrix(sample_rates(0.1, 0.03))
    t = 200.0 / float(np.min(gamma.eigenvalues))
    out = propagate(gamma, (0.5, 0.5, 0.5), M_INF, (t,))[0]
    np.testing.assert_allclose(out, M_INF, atol=1e-12)


def test_evolve_exact_rejects_negative_time():
    gamma = build_matrix(sample_rates())
    with pytest.raises(ValueError):
        propagate(gamma, (1, 1, 1), M_INF, (-0.1,))


def test_evolve_ode_matches_staged_rk4():
    # the oracle applies the RK4 stage combination as one precomputed
    # matrix per step; it must agree with the staged loop
    gamma = build_matrix(sample_rates(0.15, 0.05))
    m0 = (0.5, 0.5, 0.5)
    _, states = evolve_ode(gamma, m0, M_INF, 2.0, 1e-3)
    reference = staged_rk4(gamma.entries, m0, M_INF, 2.0, 1e-3)
    np.testing.assert_allclose(states, reference, atol=1e-12)


def test_evolve_ode_cross_checks_exact():
    gamma = build_matrix(sample_rates(0.15, 0.05))
    m0 = (0.5, 0.5, 0.5)
    times, states = evolve_ode(gamma, m0, M_INF, 20.0, 1e-3)
    exact = propagate(gamma, m0, M_INF, times[::200])
    assert np.max(np.abs(states[::200] - exact)) < 1e-8


def test_evolve_ode_constant_at_fixed_point():
    gamma = build_matrix(sample_rates(0.1, 0.02))
    times, states = evolve_ode(gamma, M_INF, M_INF, 1.0, 1e-2)
    np.testing.assert_allclose(states, np.tile(M_INF, (len(times), 1)), atol=1e-14)
    assert states[0].tolist() == M_INF.tolist()


def test_evolve_ode_scalar_decay():
    gamma = build_matrix(sample_rates())
    m0 = (M_INF[0], M_INF[1], 1.0)
    times, states = evolve_ode(gamma, m0, M_INF, 5.0, 1e-3)
    expected = np.exp(-0.33 * times)
    np.testing.assert_allclose(states[:, 2], expected, atol=1e-10)


def test_evolve_ode_step_guard():
    gamma = build_matrix(sample_rates())
    with pytest.raises(ValueError, match="exceeds"):
        evolve_ode(gamma, (1, 1, 1), M_INF, 10.0, 1.0)


def test_evolve_ode_rejects_bad_step():
    gamma = build_matrix(sample_rates())
    with pytest.raises(ValueError):
        evolve_ode(gamma, (1, 1, 1), M_INF, 1.0, 0.0)
    with pytest.raises(ValueError):
        evolve_ode(gamma, (1, 1, 1), M_INF, 0.0005, 1e-3)


def test_initial_rate_at_zero():
    gamma = build_matrix(sample_rates(0.1, 0.02))
    m0 = np.array((0.5, 0.5, 0.5))
    assert initial_rate(gamma, m0, M_INF, 0.0).tolist() == m0.tolist()


def test_initial_rate_hand_value():
    # first-mode deviation for the fresh 00 state, worked by hand:
    # tau * (rho1*(g1-k) + sigma*(g2-k) - k*delta1) = 0.009771875
    gamma = build_matrix(sample_rates(0.1, 0.02))
    sys_obj = SpinSystem(gamma1=0.9407, gamma2=1.0, k=0.5)
    out = initial_rate(gamma, (0.5, 0.5, 0.5), equilibrium_modes(sys_obj), 0.1)
    assert out[0] - 0.5 == pytest.approx(0.009771875, abs=1e-15)


def test_initial_rate_matches_exact_to_second_order():
    gamma = build_matrix(sample_rates(0.15, 0.05))
    m0 = (0.5, 0.5, 0.5)
    tau = 1e-4
    lam_max = gamma.max_eigenvalue
    linear = initial_rate(gamma, m0, M_INF, tau)
    exact = propagate(gamma, m0, M_INF, (tau,))[0]
    bound = 5.0 * (lam_max * tau) ** 2
    assert np.all(np.abs(linear - exact) < bound)


def test_initial_rate_warns_outside_window():
    gamma = build_matrix(sample_rates())
    with pytest.warns(InitialRateWindowWarning):
        initial_rate(gamma, (1, 1, 1), M_INF, 1.0)


def test_semigroup_property():
    rng = np.random.default_rng(42)
    for _ in range(20):
        gamma = build_matrix(random_positive_definite(rng))
        m0, m_inf = rng.uniform(-1, 1, (2, 3))
        t1, t2 = rng.uniform(0.1, 3.0, 2)
        direct = propagate(gamma, m0, m_inf, (t1 + t2,))
        stepped = propagate(gamma, propagate(gamma, m0, m_inf, (t1,))[0], m_inf, (t2,))
        np.testing.assert_allclose(direct, stepped, atol=1e-10)


def test_ode_residual_of_exact_solution():
    # central difference of the closed-form trajectory must satisfy the
    # equation of motion
    gamma = build_matrix(sample_rates(0.15, 0.05))
    dt = 1e-4
    for t in (0.5, 1.0, 2.0, 5.0):
        bwd, mid, fwd = propagate(gamma, (0.5, 0.5, 0.5), M_INF, (t - dt, t, t + dt))
        lhs = (fwd - bwd) / (2 * dt)
        rhs = -gamma.entries @ (mid - M_INF)
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)


def test_block_decoupling_without_interference():
    # the two-spin order must not feel the single-spin content
    gamma = build_matrix(sample_rates())
    rng = np.random.default_rng(9)
    m0 = np.column_stack((rng.uniform(-1, 1, (10, 2)), np.full(10, 0.7)))
    reference = propagate(gamma, (0.0, 0.0, 0.7), np.zeros(3), (1.3,))[0, 2]
    out = propagate(gamma, m0, np.zeros(3), (1.3,))[:, 0, 2]
    np.testing.assert_allclose(out, reference, rtol=0, atol=1e-14)


def test_monotone_approach_to_equilibrium():
    rng = np.random.default_rng(17)
    for _ in range(10):
        gamma = build_matrix(random_positive_definite(rng))
        m0, m_inf = rng.uniform(-1, 1, (2, 3))
        dev = propagate(gamma, m0, m_inf, np.linspace(0.0, 5.0, 40)) - m_inf
        norms = np.linalg.norm(dev @ gamma.eigenvectors, axis=1)
        assert np.all(np.diff(norms) <= 1e-12)
