"""Property tests of the propagation core and the coefficient map over
random inputs (hypothesis, derandomized so that every run draws the same
examples)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsrelax.analysis import CoefficientTriple, decompose, recompose
from ppsrelax.relaxation import (
    RelaxationRates,
    build_matrix,
    evolve_exact,
    evolve_ode,
    propagate,
)
from ppsrelax.spins import ModeVector, PpsLabel

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

unit = st.floats(-1.0, 1.0)
rows = st.tuples(unit, unit, unit)
labels = st.sampled_from(list(PpsLabel))


@st.composite
def dominant_rates(draw):
    """Strictly diagonally dominant rate sets (positive definite by
    Gershgorin): each off-diagonal entry is below half of the smaller of
    the two self rates of its row and column."""
    rho1, rho2, rho12 = (draw(st.floats(0.05, 1.0)) for _ in range(3))
    frac = st.floats(-0.99, 0.99)
    return RelaxationRates(
        rho1=rho1,
        rho2=rho2,
        rho12=rho12,
        sigma12=draw(frac) * min(rho1, rho2) / 2.0,
        delta1=draw(frac) * min(rho1, rho12) / 2.0,
        delta2=draw(frac) * min(rho2, rho12) / 2.0,
    )


@PROPERTY
@given(dominant_rates(), rows, rows, st.floats(0.01, 2.0))
def test_propagate_agrees_with_rk4(rates, m0, m_inf, t_end):
    # dt * lambda_max <= 2e-3, far inside the RK4 step guard (0.1);
    # criterion 1's tolerance
    gamma = build_matrix(rates)
    traj = evolve_ode(gamma, ModeVector(*m0), ModeVector(*m_inf), t_end, 1e-3)
    exact = propagate(gamma, m0, m_inf, traj.times)
    assert np.max(np.abs(exact - traj.states)) < 1e-8


@PROPERTY
@given(
    dominant_rates(),
    st.lists(rows, min_size=1, max_size=4),
    rows,
    st.lists(st.floats(0.0, 20.0), min_size=1, max_size=6),
)
def test_propagate_matches_evolve_exact_pointwise(rates, m0s, m_inf, times):
    gamma = build_matrix(rates)
    states = propagate(gamma, m0s, m_inf, times)
    assert states.shape == (len(m0s), len(times), 3)
    for m0, per_state in zip(m0s, states):
        for t, state in zip(times, per_state):
            single = evolve_exact(gamma, ModeVector(*m0), ModeVector(*m_inf), t)
            np.testing.assert_allclose(state, single.to_tuple(), rtol=0, atol=1e-13)
            if t == 0:
                assert tuple(state) == m0


@PROPERTY
@given(rows, labels)
def test_recompose_inverts_decompose(m, label):
    back = recompose(decompose(ModeVector(*m), label), label)
    np.testing.assert_allclose(back.to_tuple(), m, rtol=0, atol=1e-15)


@PROPERTY
@given(rows, labels)
def test_decompose_inverts_recompose(abc, label):
    triple = decompose(recompose(CoefficientTriple(*abc), label), label)
    np.testing.assert_allclose((triple.a, triple.b, triple.c), abc, rtol=0, atol=1e-15)
