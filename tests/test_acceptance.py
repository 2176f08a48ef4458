"""Acceptance suite: each test is one exit criterion at its stated
tolerance. The conftest prints a PASS/FAIL line per criterion."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracle import evolve_ode, initial_rate, noisy_amps
from ppsrelax.analysis import closed_form_auto, closed_form_cross, compare_pps, decompose_rows
from ppsrelax.relaxation import RelaxationRates, build_matrix, propagate
from ppsrelax.spectra import coefficient_rows, doublet_amps, fit_doublets, frequency_grid
from ppsrelax.spins import PpsLabel, SpinSystem, doublet_pairs, equilibrium_modes, pps_modes

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
            exact = propagate(gamma, m0, M_INF, times[::stride])
            worst = max(worst, float(np.max(np.abs(states[::stride] - exact))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8, f"max deviation {worst:.3e}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f} s exceeds 1 s"


def test_criterion_2_auto_only_degeneracy():
    """Without interference rates the 00 and 11 coefficient trajectories
    coincide to 1e-12 everywhere."""
    gamma = build_matrix(rates_with(0.0, 0.0))
    times = np.arange(0.0, 20.0001, 0.1)
    table = compare_pps(gamma, SYS, times, (PpsLabel.P00, PpsLabel.P11))
    for column in range(3):
        np.testing.assert_allclose(
            table[PpsLabel.P00][:, column], table[PpsLabel.P11][:, column], atol=1e-12
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
            f00, f11 = (full[label][1] for label in labels)
            a00, a11 = (auto[label][1] for label in labels)
            # 00 keeps more a and gains less b and c than 11 and than its
            # auto-only counterpart; 11 the reverse
            slower = np.array((1.0, -1.0, -1.0))
            assert np.all(slower * (f00 - f11) > 0)
            assert np.all(slower * (f00 - a00) > 0)
            assert np.all(slower * (a11 - f11) > 0)


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
            a, b, c = decompose_rows(evolved, label)
            assert auto.a + cross.a == pytest.approx(a - SYS.k, abs=1e-14)
            assert auto.b + cross.b == pytest.approx(b, abs=1e-14)
            assert auto.c + cross.c == pytest.approx(c, abs=1e-14)
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
    derived = evolved[1] - k
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
            out[label] = decompose_rows(evolved, label)[0]
        return out[PpsLabel.P00] - out[PpsLabel.P11]

    reference = initial_diff(1.0)
    for scale in (0.1, 0.25, 0.5, 0.75):
        assert initial_diff(scale) == pytest.approx(scale * reference, rel=1e-12)

    probe = 0.5
    diffs = []
    for delta1, delta2 in DELTA_LADDER:
        gamma = build_matrix(rates_with(delta1, delta2))
        table = compare_pps(gamma, SYS, [0.0, probe], (PpsLabel.P00, PpsLabel.P11))
        diffs.append(table[PpsLabel.P00][1, 0] - table[PpsLabel.P11][1, 0])
    assert all(b > a for a, b in zip(diffs, diffs[1:]))


def test_criterion_6_excess_asymmetry():
    """With delta2 = delta1 / 3, the spin-1 excess separates the 00 and
    11 states more than the spin-2 excess at every sampled time up to
    2.5 s."""
    times = np.arange(0.05, 2.5001, 0.05)
    for delta1, delta2 in DELTA_LADDER[1:]:
        gamma = build_matrix(rates_with(delta1, delta2))
        table = compare_pps(gamma, SYS, times, (PpsLabel.P00, PpsLabel.P11))
        db = np.abs(table[PpsLabel.P00][:, 1] - table[PpsLabel.P11][:, 1])
        dc = np.abs(table[PpsLabel.P00][:, 2] - table[PpsLabel.P11][:, 2])
        assert np.all(db > dc)


FWHM = 1.0
FREQS = frequency_grid(SYS.j_coupling, FWHM, 40.0, 801)


def _fitted_lines(pairs, snr, seeds):
    """Fitted line integrals [K, 2] of the doublets with the line-integral
    pairs ``pairs`` [K, 2], spectrum k degraded with noise drawn from
    ``default_rng(seeds[k])``, and whether each fit converged [K]: the
    chain that ``run_pipeline`` runs."""
    amps = noisy_amps(doublet_amps(FREQS, pairs, SYS.j_coupling, FWHM), snr, seeds)
    fits = fit_doublets(FREQS, amps, SYS.j_coupling, FWHM)
    return fits.peaks[:, :, 1], fits.converged


def test_criterion_7_measurement_round_trip():
    """Synthesize -> fit -> extract recovers the coefficient triple to
    1e-6 noiseless and to 1% in the median over 100 noisy repeats, in
    under 30 s."""
    start = time.perf_counter()
    gamma = build_matrix(rates_with(0.15, 0.05))
    labels, times = (PpsLabel.P00, PpsLabel.P11), (0.0, 1.25, 2.5)
    cases = [(label, t) for label in labels for t in times]
    table = compare_pps(gamma, SYS, times, labels)
    a, b, c = np.concatenate([table[label] for label in labels]).T
    # in the order of coefficient_rows: a_from_spin2, a_from_spin1, b, c
    truths = np.column_stack((a / SYS.gamma2, a / SYS.gamma1, b / SYS.gamma1, c / SYS.gamma2))
    states = propagate(gamma, [pps_modes(label, SYS) for label in labels], M_INF, times)
    state_pairs = doublet_pairs(states.reshape(-1, 3))  # [case, nucleus, 2]
    eq_pairs = doublet_pairs(M_INF)  # [nucleus, 2]

    # noiseless: exact chain recovery, against one pair of reference fits
    pairs = np.concatenate((eq_pairs, state_pairs.reshape(-1, 2)))
    lines, converged = _fitted_lines(pairs, math.inf, [0] * len(pairs))
    assert converged.all()
    eq1, eq2 = lines[:2]
    for (label, _), (lines1, lines2), want in zip(cases, lines[2:].reshape(-1, 2, 2), truths):
        got = coefficient_rows(lines1, lines2, eq1, eq2, label)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    # noisy: median over 100 seeded repeats within 1% of scale; each
    # repeat fits its own references (seeds base + 1, base + 2) and the
    # state (base + 3, base + 4), and a repeat with a non-converged fit
    # counts as an infinite error
    snr = 100.0
    n_seeds = 100
    repeats = np.empty((len(cases), n_seeds, 4, 2))
    repeats[:, :, :2] = eq_pairs
    repeats[:, :, 2:] = state_pairs[:, None]
    base = 1_000_000 * np.arange(len(cases))[:, None] + 100 * np.arange(n_seeds)
    seeds = base[..., None] + np.arange(1, 5)
    lines, converged = _fitted_lines(repeats.reshape(-1, 2), snr, seeds.ravel().tolist())
    lines = lines.reshape(len(cases), n_seeds, 4, 2)
    converged = converged.reshape(len(cases), n_seeds, 4).all(axis=-1)
    scale = SYS.k / np.array([SYS.gamma2, SYS.gamma1, SYS.gamma1, SYS.gamma2])
    for (label, _), want, case_lines, case_converged in zip(cases, truths, lines, converged):
        errors = np.full((n_seeds, 4), math.inf)
        for i in np.flatnonzero(case_converged):
            eq1, eq2, lines1, lines2 = case_lines[i]
            errors[i] = np.abs(coefficient_rows(lines1, lines2, eq1, eq2, label) - want)
        median = np.median(errors, axis=0)
        assert np.all(median < 0.01 * np.maximum(np.abs(want), scale)), median

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f} s exceeds 30 s"


def test_criterion_8_numerical_hygiene():
    """Semigroup composition to 1e-10, equation-of-motion residual to
    1e-6, eigen reconstruction to 1e-12, and the algebraic round trips
    to 1e-12."""
    from oracle import modes_to_populations, populations_to_modes, recompose

    rng = np.random.default_rng(512)

    # semigroup
    for _ in range(25):
        rates = random_admissible(rng)
        gamma = build_matrix(rates)
        m0, m_inf = rng.uniform(-1, 1, (2, 3))
        t1, t2 = rng.uniform(0.05, 3.0, 2)
        once = propagate(gamma, m0, m_inf, (t1 + t2,))
        twice = propagate(gamma, propagate(gamma, m0, m_inf, (t1,))[0], m_inf, (t2,))
        np.testing.assert_allclose(once, twice, atol=1e-10)

    # equation-of-motion residual via central differences
    gamma = build_matrix(rates_with(0.15, 0.05))
    m0 = pps_modes(PpsLabel.P00, SYS)
    dt = 1e-4
    for t in (0.25, 1.0, 3.0, 8.0):
        bwd, mid, fwd = propagate(gamma, m0, M_INF, (t - dt, t, t + dt))
        residual = (fwd - bwd) / (2 * dt) + gamma.entries @ (mid - M_INF)
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
        m = rng.uniform(-2, 2, 3)
        back = populations_to_modes(modes_to_populations(m))
        np.testing.assert_allclose(back, m, atol=1e-12)
        label = list(PpsLabel)[rng.integers(0, 4)]
        again = recompose(decompose_rows(m, label), label)
        np.testing.assert_allclose(again, m, atol=1e-12)
