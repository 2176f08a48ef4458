import numpy as np
import pytest

from oracle import initial_rate, recompose
from ppsrelax.analysis import (
    CoefficientTriple,
    closed_form_auto,
    closed_form_cross,
    compare_pps,
    decompose,
)
from ppsrelax.relaxation import RelaxationRates, build_matrix
from ppsrelax.spins import ModeVector, PpsLabel, SpinSystem, equilibrium_modes, pps_modes

SYS = SpinSystem(gamma1=0.9407, gamma2=1.0, k=0.5)
RATES = RelaxationRates(
    rho1=0.3125, rho2=0.33, rho12=0.33, sigma12=0.02, delta1=0.1, delta2=0.02
)


def random_admissible(rng):
    """Positive-definite rate set with strictly positive interference."""
    while True:
        rates = RelaxationRates(
            rho1=rng.uniform(0.05, 1.0),
            rho2=rng.uniform(0.05, 1.0),
            rho12=rng.uniform(0.05, 1.0),
            sigma12=rng.uniform(-0.05, 0.05),
            delta1=rng.uniform(0.01, 0.15),
            delta2=rng.uniform(0.01, 0.15),
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


# ---------------------------------------------------------------- decompose

def test_decompose_fresh_state():
    for label in PpsLabel:
        triple = decompose(pps_modes(label, SYS), label)
        assert triple.a == SYS.k
        assert triple.b == 0.0
        assert triple.c == 0.0


def test_decompose_shifted_00():
    k = 0.5
    triple = decompose(ModeVector(k + 0.01, k + 0.02, k - 0.03), PpsLabel.P00)
    assert triple.a == pytest.approx(k - 0.03, abs=1e-15)
    assert triple.b == pytest.approx(0.04, abs=1e-15)
    assert triple.c == pytest.approx(0.05, abs=1e-15)


def test_decompose_shifted_11_symbolic_pattern():
    k, d1, d2, d12 = 0.5, 0.01, 0.02, 0.03
    triple = decompose(ModeVector(k + d1, k + d2, -k + d12), PpsLabel.P11)
    assert triple.a == pytest.approx(k - d12, abs=1e-15)
    assert triple.b == pytest.approx(d1 + d12, abs=1e-15)
    assert triple.c == pytest.approx(d2 + d12, abs=1e-15)


def test_recompose_fresh_states():
    assert recompose(CoefficientTriple(0.5, 0, 0), PpsLabel.P00) == ModeVector(0.5, 0.5, 0.5)
    assert recompose(CoefficientTriple(0.5, 0, 0), PpsLabel.P11) == ModeVector(0.5, 0.5, -0.5)


def test_decompose_recompose_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(50):
        label = list(PpsLabel)[rng.integers(0, 4)]
        m = ModeVector(*rng.uniform(-1, 1, 3))
        back = recompose(decompose(m, label), label)
        np.testing.assert_allclose(back.to_tuple(), m.to_tuple(), atol=1e-15)


# ------------------------------------------------------------- closed forms

def test_auto_deviation_of_a_is_label_independent():
    tau = 0.1
    expected = -SYS.k * RATES.rho12 * tau
    for label in PpsLabel:
        dev = closed_form_auto(label, RATES, SYS, tau)
        assert dev.a == pytest.approx(expected, rel=1e-14)


def test_auto_deviation_b_hand_value():
    # 0.1 * (0.3125*0.4407 + 0.02*0.5 + 0.5*0.33) = 0.031271875
    dev = closed_form_auto(PpsLabel.P00, RATES, SYS, 0.1)
    assert dev.b == pytest.approx(0.031271875, abs=1e-15)


def test_auto_deviations_equal_for_00_and_11():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rates = random_admissible(rng)
        tau = rng.uniform(0.01, 0.2)
        d00 = closed_form_auto(PpsLabel.P00, rates, SYS, tau)
        d11 = closed_form_auto(PpsLabel.P11, rates, SYS, tau)
        np.testing.assert_allclose(tuple(d00), tuple(d11), rtol=1e-13, atol=1e-16)


def test_auto_deviations_differ_for_01_and_10():
    d01 = closed_form_auto(PpsLabel.P01, RATES, SYS, 0.1)
    d10 = closed_form_auto(PpsLabel.P10, RATES, SYS, 0.1)
    assert abs(d01.b - d10.b) > 1e-6
    assert abs(d01.c - d10.c) > 1e-6


def test_cross_deviation_a_hand_value():
    # 0.1 * (0.1*0.4407 + 0.02*0.5) = 0.005407
    dev = closed_form_cross(PpsLabel.P00, RATES, SYS, 0.1)
    assert dev.a == pytest.approx(0.005407, abs=1e-15)


def test_cross_deviation_sign_flip_between_00_and_11():
    rng = np.random.default_rng(8)
    for _ in range(20):
        rates = random_admissible(rng)
        tau = rng.uniform(0.01, 0.2)
        d00 = closed_form_cross(PpsLabel.P00, rates, SYS, tau)
        d11 = closed_form_cross(PpsLabel.P11, rates, SYS, tau)
        assert d00.a == pytest.approx(-d11.a, rel=1e-13)


def test_cross_deviations_vanish_without_interference():
    rates = RelaxationRates(delta1=0.0, delta2=0.0, rho1=0.3, rho2=0.3, rho12=0.3, sigma12=0.01)
    for label in PpsLabel:
        dev = closed_form_cross(label, rates, SYS, 0.1)
        assert tuple(dev) == (0.0, 0.0, 0.0)


def auto_table(label, r, s, tau):
    """Closed-form auto-only deviation lines, transcribed once as a
    regression fixture against the matrix-derived computation."""
    g1, g2, k = s.gamma1, s.gamma2, s.k
    a = -k * r.rho12 * tau
    b = {
        PpsLabel.P00: (r.rho1 * (g1 - k) + r.sigma12 * (g2 - k) + k * r.rho12),
        PpsLabel.P01: (r.rho1 * (g1 + k) + r.sigma12 * (g2 - k) - k * r.rho12),
        PpsLabel.P10: (r.rho1 * (g1 - k) + r.sigma12 * (g2 + k) + k * r.rho12),
        PpsLabel.P11: (r.rho1 * (g1 - k) + r.sigma12 * (g2 - k) + k * r.rho12),
    }[label] * tau
    c = {
        PpsLabel.P00: (r.sigma12 * (g1 - k) + r.rho2 * (g2 - k) + k * r.rho12),
        PpsLabel.P01: (r.sigma12 * (g1 + k) + r.rho2 * (g2 - k) + k * r.rho12),
        PpsLabel.P10: (r.sigma12 * (g1 - k) + r.rho2 * (g2 + k) - k * r.rho12),
        PpsLabel.P11: (r.sigma12 * (g1 - k) + r.rho2 * (g2 - k) + k * r.rho12),
    }[label] * tau
    return a, b, c


def cross_table(label, r, s, tau):
    """Closed-form interference-only deviation lines (same role as
    ``auto_table``)."""
    g1, g2, k = s.gamma1, s.gamma2, s.k
    a = {
        PpsLabel.P00: +(r.delta1 * (g1 - k) + r.delta2 * (g2 - k)),
        PpsLabel.P01: +(r.delta1 * (g1 + k) + r.delta2 * (g2 - k)),
        PpsLabel.P10: +(r.delta1 * (g1 - k) + r.delta2 * (g2 + k)),
        PpsLabel.P11: -(r.delta1 * (g1 - k) + r.delta2 * (g2 - k)),
    }[label] * tau
    b = {
        PpsLabel.P00: -(r.delta1 * g1 + r.delta2 * (g2 - k)),
        PpsLabel.P01: +(r.delta1 * g1 + r.delta2 * (g2 - k)),
        PpsLabel.P10: -(r.delta1 * g1 + r.delta2 * (g2 + k)),
        PpsLabel.P11: +(r.delta1 * g1 + r.delta2 * (g2 - k)),
    }[label] * tau
    c = {
        PpsLabel.P00: -(r.delta1 * (g1 - k) + r.delta2 * g2),
        PpsLabel.P01: -(r.delta1 * (g1 + k) + r.delta2 * g2),
        PpsLabel.P10: +(r.delta1 * (g1 - k) + r.delta2 * g2),
        PpsLabel.P11: +(r.delta1 * (g1 - k) + r.delta2 * g2),
    }[label] * tau
    return a, b, c


@pytest.mark.parametrize("label", list(PpsLabel))
def test_auto_matches_transcribed_table(label):
    rng = np.random.default_rng(31)
    for _ in range(10):
        rates = random_admissible(rng)
        tau = rng.uniform(0.01, 0.3)
        dev = closed_form_auto(label, rates, SYS, tau)
        np.testing.assert_allclose(
            tuple(dev), auto_table(label, rates, SYS, tau), rtol=1e-12, atol=1e-16
        )


@pytest.mark.parametrize("label", list(PpsLabel))
def test_cross_matches_transcribed_table(label):
    rng = np.random.default_rng(37)
    for _ in range(10):
        rates = random_admissible(rng)
        tau = rng.uniform(0.01, 0.3)
        dev = closed_form_cross(label, rates, SYS, tau)
        np.testing.assert_allclose(
            tuple(dev), cross_table(label, rates, SYS, tau), rtol=1e-12, atol=1e-16
        )


def test_spin2_deviation_uses_spin2_self_rate():
    """The I2z deviation slope carries rho2; a rho1 transcription variant
    is flagged as wrong whenever the two self rates differ."""
    tau = 0.1
    g1, g2, k = SYS.gamma1, SYS.gamma2, SYS.k
    m_inf = equilibrium_modes(SYS)
    gamma = build_matrix(RATES)
    evolved = initial_rate(gamma, pps_modes(PpsLabel.P00, SYS), m_inf, tau)
    delta2_slope = evolved.c2 - k
    with_rho2 = tau * (RATES.sigma12 * (g1 - k) + RATES.rho2 * (g2 - k) - k * RATES.delta2)
    with_rho1 = tau * (RATES.sigma12 * (g1 - k) + RATES.rho1 * (g2 - k) - k * RATES.delta2)
    assert delta2_slope == pytest.approx(with_rho2, rel=1e-13)
    assert RATES.rho1 != RATES.rho2
    assert abs(delta2_slope - with_rho1) > 1e-5


@pytest.mark.filterwarnings("ignore::ppsrelax.relaxation.InitialRateWindowWarning")
def test_linear_split_is_exact():
    # the split is an algebraic identity, valid even beyond the window
    rng = np.random.default_rng(13)
    m_inf = equilibrium_modes(SYS)
    for _ in range(30):
        rates = random_admissible(rng)
        tau = rng.uniform(0.01, 0.3)
        gamma = build_matrix(rates)
        for label in PpsLabel:
            auto = closed_form_auto(label, rates, SYS, tau)
            cross = closed_form_cross(label, rates, SYS, tau)
            evolved = initial_rate(gamma, pps_modes(label, SYS), m_inf, tau)
            total = decompose(evolved, label)
            assert auto.a + cross.a == pytest.approx(total.a - SYS.k, abs=1e-14)
            assert auto.b + cross.b == pytest.approx(total.b, abs=1e-14)
            assert auto.c + cross.c == pytest.approx(total.c, abs=1e-14)


# -------------------------------------------------------------- compare_pps

def test_compare_pps_t0_rows():
    gamma = build_matrix(RATES)
    table = compare_pps(gamma, SYS, [0.0, 0.5, 1.0])
    for label in PpsLabel:
        first = CoefficientTriple(*table.coefficients[label][0])
        assert (first.a, first.b, first.c) == (SYS.k, 0.0, 0.0)


def test_compare_pps_degenerate_without_interference():
    rates = RelaxationRates(rho1=0.3125, rho2=0.33, rho12=0.33, sigma12=0.02)
    gamma = build_matrix(rates)
    times = np.linspace(0.0, 10.0, 41)
    table = compare_pps(gamma, SYS, times, (PpsLabel.P00, PpsLabel.P11))
    np.testing.assert_allclose(
        table.a(PpsLabel.P00), table.a(PpsLabel.P11), atol=1e-12
    )
    np.testing.assert_allclose(
        table.b(PpsLabel.P00), table.b(PpsLabel.P11), atol=1e-12
    )
    np.testing.assert_allclose(
        table.c(PpsLabel.P00), table.c(PpsLabel.P11), atol=1e-12
    )


def test_compare_pps_interference_slows_00():
    gamma = build_matrix(RATES)
    tau = 0.05
    table = compare_pps(gamma, SYS, [0.0, tau], (PpsLabel.P00, PpsLabel.P11))
    assert table.a(PpsLabel.P00)[1] - SYS.k > table.a(PpsLabel.P11)[1] - SYS.k


def test_compare_pps_deviation_columns():
    gamma = build_matrix(RATES)
    table = compare_pps(gamma, SYS, [0.0, 0.5])
    for label in PpsLabel:
        dev = table.a(label) - table.k
        assert dev[0] == 0.0
        assert dev[1] == table.a(label)[1] - SYS.k


def test_compare_pps_validates_times():
    gamma = build_matrix(RATES)
    with pytest.raises(ValueError):
        compare_pps(gamma, SYS, [])
    with pytest.raises(ValueError):
        compare_pps(gamma, SYS, [1.0, 0.5])


# --------------------------------------------------- ordering property suite

def test_interference_ordering_inequalities():
    """With positive interference rates and k below both gyromagnetic
    weights, state 00 relaxes slower than 11 in all three coefficients,
    and each trajectory sits on the expected side of its auto-only
    (interference-free) counterpart."""
    from dataclasses import replace

    rng = np.random.default_rng(77)
    for _ in range(100):
        rates = random_admissible(rng)
        gamma = build_matrix(rates)
        gamma_auto = build_matrix(replace(rates, delta1=0.0, delta2=0.0))
        lam_max = gamma.max_eigenvalue
        for frac in (0.25, 1.0):
            tau = 0.1 * frac / lam_max
            labels = (PpsLabel.P00, PpsLabel.P11)
            full = compare_pps(gamma, SYS, [0.0, tau], labels)
            auto = compare_pps(gamma_auto, SYS, [0.0, tau], labels)
            f00 = CoefficientTriple(*full.coefficients[PpsLabel.P00][1])
            f11 = CoefficientTriple(*full.coefficients[PpsLabel.P11][1])
            a00 = CoefficientTriple(*auto.coefficients[PpsLabel.P00][1])
            a11 = CoefficientTriple(*auto.coefficients[PpsLabel.P11][1])
            assert f00.a > f11.a
            assert f00.b < f11.b
            assert f00.c < f11.c
            assert f00.a > a00.a and f00.b < a00.b and f00.c < a00.c
            assert f11.a < a11.a and f11.b > a11.b and f11.c > a11.c


def test_linearized_ordering_is_strict():
    # at the initial-rate level the interference contribution alone fixes
    # the ordering signs exactly
    rng = np.random.default_rng(78)
    for _ in range(100):
        rates = random_admissible(rng)
        tau = rng.uniform(0.005, 0.3)
        cc00 = closed_form_cross(PpsLabel.P00, rates, SYS, tau)
        cc11 = closed_form_cross(PpsLabel.P11, rates, SYS, tau)
        assert cc00.a > 0 > cc11.a
        assert cc00.b < 0 < cc11.b
        assert cc00.c < 0 < cc11.c


def test_excess_asymmetry_when_delta2_smaller():
    # with delta2 < delta1 the spin-1 excess separates 00 from 11 more
    # than the spin-2 excess does
    rates = RelaxationRates(
        rho1=0.3125, rho2=0.33, rho12=0.33, sigma12=0.02, delta1=0.15, delta2=0.05
    )
    gamma = build_matrix(rates)
    times = np.arange(0.1, 2.51, 0.1)
    table = compare_pps(gamma, SYS, times, (PpsLabel.P00, PpsLabel.P11))
    db = np.abs(table.b(PpsLabel.P00) - table.b(PpsLabel.P11))
    dc = np.abs(table.c(PpsLabel.P00) - table.c(PpsLabel.P11))
    assert np.all(db > dc)


def test_initial_rate_difference_scales_linearly_with_interference():
    base = RelaxationRates(
        rho1=0.3125, rho2=0.33, rho12=0.33, sigma12=0.02, delta1=0.15, delta2=0.05
    )
    tau = 0.1
    m_inf = equilibrium_modes(SYS)

    def a_difference(scale):
        rates = RelaxationRates(
            rho1=base.rho1,
            rho2=base.rho2,
            rho12=base.rho12,
            sigma12=base.sigma12,
            delta1=base.delta1 * scale,
            delta2=base.delta2 * scale,
        )
        gamma = build_matrix(rates)
        out = {}
        for label in (PpsLabel.P00, PpsLabel.P11):
            evolved = initial_rate(gamma, pps_modes(label, SYS), m_inf, tau)
            out[label] = decompose(evolved, label).a
        return out[PpsLabel.P00] - out[PpsLabel.P11]

    reference = a_difference(1.0)
    for scale in (0.25, 0.5, 0.75):
        assert a_difference(scale) == pytest.approx(scale * reference, rel=1e-12)
