"""Acceptance suite: each test is one exit criterion at its stated
tolerance. The conftest prints a PASS/FAIL line per criterion."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracle import evolve_ode, initial_rate
from ppsrelax.analysis import (
    CoefficientTriple,
    closed_form_auto,
    closed_form_cross,
    compare_pps,
    decompose,
)
from ppsrelax.relaxation import RelaxationRates, build_matrix, evolve_exact
from ppsrelax.spectra import add_noise, coefficients_from_fits, fit_doublet, synthesize
from ppsrelax.spins import (
    PpsLabel,
    SpinSystem,
    equilibrium_modes,
    line_intensities,
    pps_modes,
)

SYS = SpinSystem(gamma1=0.9407, gamma2=1.0, k=0.5, j_coupling=5.8)
M_INF = equilibrium_modes(SYS)

# simulation rate set; interference pairs keep delta2 = delta1 / 3
BASE = dict(rho1=0.3125, rho2=0.33, rho12=0.33, sigma12=0.02)
DELTA_LADDER = ((0.0, 0.0), (0.05, 0.0167), (0.10, 0.033), (0.15, 0.05))


def rates_with(delta1, delta2):
    return RelaxationRates(delta1=delta1, delta2=delta2, **BASE)


def random_admissible(rng):
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


def test_criterion_1_oracle_equivalence():
    """Spectral propagation and fixed-step RK4 agree to 1e-8 over 20 s
    for every state and interference rung, in under a second."""
    start = time.perf_counter()
    worst = 0.0
    for delta1, delta2 in ((0.0, 0.0), (0.05, 0.0167), (0.15, 0.05)):
        gamma = build_matrix(rates_with(delta1, delta2))
        for label in PpsLabel:
            m0 = pps_modes(label, SYS)
            times, states = evolve_ode(gamma, m0, M_INF, 20.0, 1e-3)
            # the error envelope varies on the relaxation timescale, so a
            # 50 ms comparison grid samples it densely
            stride = 50
            for t, state in zip(times[::stride], states[::stride]):
                exact = np.array(evolve_exact(gamma, m0, M_INF, float(t)).to_tuple())
                worst = max(worst, float(np.max(np.abs(state - exact))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8, f"max deviation {worst:.3e}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f} s exceeds 1 s"


def test_criterion_2_auto_only_degeneracy():
    """Without interference rates the 00 and 11 coefficient trajectories
    coincide to 1e-12 everywhere."""
    gamma = build_matrix(rates_with(0.0, 0.0))
    times = np.arange(0.0, 20.0001, 0.1)
    table = compare_pps(gamma, SYS, times, (PpsLabel.P00, PpsLabel.P11))
    for getter in (table.a, table.b, table.c):
        np.testing.assert_allclose(
            getter(PpsLabel.P00), getter(PpsLabel.P11), atol=1e-12
        )


def test_criterion_3_interference_ordering():
    """Over 100+ random admissible rate sets, inside the initial-rate
    window, positive interference slows every coefficient of 00 and
    accelerates every coefficient of 11 (vs each other and vs their
    interference-free counterparts)."""
    rng = np.random.default_rng(2024)
    labels = (PpsLabel.P00, PpsLabel.P11)
    for _ in range(100):
        rates = random_admissible(rng)
        gamma = build_matrix(rates)
        gamma_auto = build_matrix(replace(rates, delta1=0.0, delta2=0.0))
        lam_max = gamma.max_eigenvalue
        for frac in (0.2, 0.6, 1.0):
            tau = 0.1 * frac / lam_max
            full = compare_pps(gamma, SYS, [0.0, tau], labels)
            auto = compare_pps(gamma_auto, SYS, [0.0, tau], labels)
            f00 = CoefficientTriple(*full.coefficients[PpsLabel.P00][1])
            f11 = CoefficientTriple(*full.coefficients[PpsLabel.P11][1])
            a00 = CoefficientTriple(*auto.coefficients[PpsLabel.P00][1])
            a11 = CoefficientTriple(*auto.coefficients[PpsLabel.P11][1])
            assert f00.a > f11.a and f00.b < f11.b and f00.c < f11.c
            assert f00.a > a00.a and f00.b < a00.b and f00.c < a00.c
            assert f11.a < a11.a and f11.b > a11.b and f11.c > a11.c


def test_criterion_4_closed_form_fixtures():
    """The auto/interference split reproduces the direct matrix product
    to 1e-14 and the verbatim closed-form identities hold; the spin-2
    slope fixture is pinned to rho2 (the rho1 transcription variant is
    flagged as inconsistent, not adopted)."""
    import warnings

    from ppsrelax.relaxation import InitialRateWindowWarning

    rng = np.random.default_rng(9)
    for _ in range(50):
        rates = random_admissible(rng)
        tau = rng.uniform(0.01, 0.3)
        gamma = build_matrix(rates)
        for label in PpsLabel:
            auto = closed_form_auto(label, rates, SYS, tau)
            cross = closed_form_cross(label, rates, SYS, tau)
            with warnings.catch_warnings():
                # the split is algebraic; drawn tau may leave the window
                warnings.simplefilter("ignore", InitialRateWindowWarning)
                evolved = initial_rate(gamma, pps_modes(label, SYS), M_INF, tau)
            total = decompose(evolved, label)
            assert auto.a + cross.a == pytest.approx(total.a - SYS.k, abs=1e-14)
            assert auto.b + cross.b == pytest.approx(total.b, abs=1e-14)
            assert auto.c + cross.c == pytest.approx(total.c, abs=1e-14)
            # verbatim identity: the two-spin-order auto deviation for
            # every state
            assert auto.a == pytest.approx(-SYS.k * rates.rho12 * tau, rel=1e-12)
        # verbatim identities across states
        a00 = closed_form_auto(PpsLabel.P00, rates, SYS, tau)
        a11 = closed_form_auto(PpsLabel.P11, rates, SYS, tau)
        np.testing.assert_allclose(tuple(a00), tuple(a11), rtol=1e-12, atol=1e-16)
        c00 = closed_form_cross(PpsLabel.P00, rates, SYS, tau)
        c11 = closed_form_cross(PpsLabel.P11, rates, SYS, tau)
        assert c00.a == pytest.approx(-c11.a, rel=1e-12)

    # flagged fixture: the spin-2 excess slope uses the spin-2 self rate
    rates = rates_with(0.1, 0.02)
    tau, g1, g2, k = 0.1, SYS.gamma1, SYS.gamma2, SYS.k
    gamma = build_matrix(rates)
    evolved = initial_rate(gamma, pps_modes(PpsLabel.P00, SYS), M_INF, tau)
    derived = evolved.c2 - k
    with_rho2 = tau * (rates.sigma12 * (g1 - k) + rates.rho2 * (g2 - k) - k * rates.delta2)
    with_rho1 = tau * (rates.sigma12 * (g1 - k) + rates.rho1 * (g2 - k) - k * rates.delta2)
    assert derived == pytest.approx(with_rho2, rel=1e-13)
    assert abs(derived - with_rho1) > 1e-5  # variant flagged, not adopted


def test_criterion_5_linear_differential_decay():
    """The linearized 00/11 split of the surviving coefficient is exactly
    proportional to a joint interference scale; the full-solution split
    at 0.5 s grows strictly along the default ladder."""
    tau = 0.1
    base1, base2 = 0.15, 0.05

    def initial_diff(scale):
        gamma = build_matrix(rates_with(base1 * scale, base2 * scale))
        out = {}
        for label in (PpsLabel.P00, PpsLabel.P11):
            evolved = initial_rate(gamma, pps_modes(label, SYS), M_INF, tau)
            out[label] = decompose(evolved, label).a
        return out[PpsLabel.P00] - out[PpsLabel.P11]

    reference = initial_diff(1.0)
    for scale in (0.1, 0.25, 0.5, 0.75):
        assert initial_diff(scale) == pytest.approx(scale * reference, rel=1e-12)

    probe = 0.5
    diffs = []
    for delta1, delta2 in DELTA_LADDER:
        gamma = build_matrix(rates_with(delta1, delta2))
        table = compare_pps(gamma, SYS, [0.0, probe], (PpsLabel.P00, PpsLabel.P11))
        diffs.append(table.a(PpsLabel.P00)[1] - table.a(PpsLabel.P11)[1])
    assert all(b > a for a, b in zip(diffs, diffs[1:]))


def test_criterion_6_excess_asymmetry():
    """With delta2 = delta1 / 3, the spin-1 excess separates the 00 and
    11 states more than the spin-2 excess at every sampled time up to
    2.5 s."""
    times = np.arange(0.05, 2.5001, 0.05)
    for delta1, delta2 in DELTA_LADDER[1:]:
        gamma = build_matrix(rates_with(delta1, delta2))
        table = compare_pps(gamma, SYS, times, (PpsLabel.P00, PpsLabel.P11))
        db = np.abs(table.b(PpsLabel.P00) - table.b(PpsLabel.P11))
        dc = np.abs(table.c(PpsLabel.P00) - table.c(PpsLabel.P11))
        assert np.all(db > dc)


def _measured_coefficients(m, label, snr, seeds, eq_fits):
    fwhm, span, points = 1.0, 40.0, 801
    ints = line_intensities(m)
    fits = {}
    for nucleus, seed in zip((1, 2), seeds):
        s = synthesize(ints, SYS, nucleus, fwhm, span, points)
        s = add_noise(s, snr, seed)
        fits[nucleus] = fit_doublet(s, SYS, fwhm)
    return coefficients_from_fits(fits[1], fits[2], eq_fits[1], eq_fits[2], label)


def _equilibrium_fits(snr, seeds):
    fwhm, span, points = 1.0, 40.0, 801
    ints = line_intensities(M_INF)
    out = {}
    for nucleus, seed in zip((1, 2), seeds):
        s = synthesize(ints, SYS, nucleus, fwhm, span, points)
        s = add_noise(s, snr, seed)
        out[nucleus] = fit_doublet(s, SYS, fwhm)
    return out


def test_criterion_7_measurement_round_trip():
    """Synthesize -> fit -> extract recovers the coefficient triple to
    1e-6 noiseless and to 1% in the median over 100 noisy repeats, in
    under 30 s."""
    start = time.perf_counter()
    gamma = build_matrix(rates_with(0.15, 0.05))
    labels = (PpsLabel.P00, PpsLabel.P11)
    times = (0.0, 1.25, 2.5)

    truths = {}
    for label in labels:
        for t in times:
            m = evolve_exact(gamma, pps_modes(label, SYS), M_INF, t)
            truths[(label, t)] = (m, decompose(m, label))

    # noiseless: exact chain recovery
    eq_fits = _equilibrium_fits(math.inf, (0, 0))
    for (label, t), (m, triple) in truths.items():
        got = _measured_coefficients(m, label, math.inf, (0, 0), eq_fits)
        assert got.a_from_spin2 == pytest.approx(triple.a / SYS.gamma2, abs=1e-6)
        assert got.a_from_spin1 == pytest.approx(triple.a / SYS.gamma1, abs=1e-6)
        assert got.b == pytest.approx(triple.b / SYS.gamma1, abs=1e-6)
        assert got.c == pytest.approx(triple.c / SYS.gamma2, abs=1e-6)

    # noisy: median over 100 seeded repeats within 1% of scale; a rare
    # non-converged fit counts as an infinite error for its repeat
    from ppsrelax.spectra import NotConverged

    snr = 100.0
    n_seeds = 100
    scale2 = SYS.k / SYS.gamma2
    scale1 = SYS.k / SYS.gamma1
    for case_index, ((label, t), (m, triple)) in enumerate(truths.items()):
        errors = {"a2": [], "a1": [], "b": [], "c": []}
        for i in range(n_seeds):
            base = 1_000_000 * case_index + 100 * i
            try:
                eq_fits = _equilibrium_fits(snr, (base + 1, base + 2))
                got = _measured_coefficients(
                    m, label, snr, (base + 3, base + 4), eq_fits
                )
            except NotConverged:
                for values in errors.values():
                    values.append(math.inf)
                continue
            errors["a2"].append(abs(got.a_from_spin2 - triple.a / SYS.gamma2))
            errors["a1"].append(abs(got.a_from_spin1 - triple.a / SYS.gamma1))
            errors["b"].append(abs(got.b - triple.b / SYS.gamma1))
            errors["c"].append(abs(got.c - triple.c / SYS.gamma2))
        assert np.median(errors["a2"]) < 0.01 * max(abs(triple.a / SYS.gamma2), scale2)
        assert np.median(errors["a1"]) < 0.01 * max(abs(triple.a / SYS.gamma1), scale1)
        assert np.median(errors["b"]) < 0.01 * max(abs(triple.b / SYS.gamma1), scale1)
        assert np.median(errors["c"]) < 0.01 * max(abs(triple.c / SYS.gamma2), scale2)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f} s exceeds 30 s"


def test_criterion_8_numerical_hygiene():
    """Semigroup composition to 1e-10, equation-of-motion residual to
    1e-6, eigen reconstruction to 1e-12, and the algebraic round trips
    to 1e-12."""
    from oracle import modes_to_populations, populations_to_modes, recompose
    from ppsrelax.spins import ModeVector

    rng = np.random.default_rng(512)

    # semigroup
    for _ in range(25):
        rates = random_admissible(rng)
        gamma = build_matrix(rates)
        m0 = ModeVector(*rng.uniform(-1, 1, 3))
        m_inf = ModeVector(*rng.uniform(-1, 1, 3))
        t1, t2 = rng.uniform(0.05, 3.0, 2)
        once = evolve_exact(gamma, m0, m_inf, t1 + t2)
        twice = evolve_exact(gamma, evolve_exact(gamma, m0, m_inf, t1), m_inf, t2)
        np.testing.assert_allclose(once.to_tuple(), twice.to_tuple(), atol=1e-10)

    # equation-of-motion residual via central differences
    gamma = build_matrix(rates_with(0.15, 0.05))
    m0 = pps_modes(PpsLabel.P00, SYS)
    dt = 1e-4
    for t in (0.25, 1.0, 3.0, 8.0):
        fwd = np.array(evolve_exact(gamma, m0, M_INF, t + dt).to_tuple())
        bwd = np.array(evolve_exact(gamma, m0, M_INF, t - dt).to_tuple())
        mid = np.array(evolve_exact(gamma, m0, M_INF, t).to_tuple())
        residual = (fwd - bwd) / (2 * dt) + gamma.entries @ (
            mid - np.array(M_INF.to_tuple())
        )
        assert np.max(np.abs(residual)) < 1e-6

    # eigendecomposition reconstruction
    for _ in range(25):
        gamma = build_matrix(random_admissible(rng))
        rebuilt = gamma.eigenvectors @ np.diag(gamma.eigenvalues) @ gamma.eigenvectors.T
        err = np.linalg.norm(rebuilt - gamma.entries) / np.linalg.norm(gamma.entries)
        assert err < 1e-12
        assert np.linalg.norm(gamma.eigenvectors.T @ gamma.eigenvectors - np.eye(3)) < 1e-12

    # algebraic round trips
    for _ in range(50):
        m = ModeVector(*rng.uniform(-2, 2, 3))
        back = populations_to_modes(modes_to_populations(m))
        np.testing.assert_allclose(back.to_tuple(), m.to_tuple(), atol=1e-12)
        label = list(PpsLabel)[rng.integers(0, 4)]
        triple = decompose(m, label)
        again = recompose(
            CoefficientTriple(triple.a, triple.b, triple.c), label
        )
        np.testing.assert_allclose(again.to_tuple(), m.to_tuple(), atol=1e-12)
