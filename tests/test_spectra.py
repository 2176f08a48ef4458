import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsrelax import spectra
from ppsrelax.spectra import (
    FIT_MAX_ITER,
    DoubletFit,
    GridTooCoarse,
    InconsistentEquilibrium,
    Spectrum,
    add_noise,
    coefficients_from_fits,
    doublet_seeds,
    estimate_noise_floor,
    fit_doublet,
    fit_doublets,
    load_spectrum,
    lorentzian,
    save_spectrum,
    synthesize,
)
from ppsrelax.spins import LineIntensities, PpsLabel, SpinSystem, line_intensities, pps_modes

SYS = SpinSystem(gamma1=0.9407, gamma2=1.0, k=0.5, j_coupling=5.8)

EQ = LineIntensities(h0=1.0, h1=1.0, f0=0.9407, f1=0.9407)


def make_spectrum(intensities, nucleus=2, fwhm=1.0, span=40.0, points=801):
    return synthesize(intensities, SYS, nucleus, fwhm, span, points)


def eq_fit(nucleus):
    return fit_doublet(make_spectrum(EQ, nucleus=nucleus), SYS, 1.0)


def uniform_integral(amps, freqs):
    """Trapezoid-rule integral of ``amps`` on the uniform grid ``freqs``."""
    return (freqs[1] - freqs[0]) * (amps.sum() - (amps[0] + amps[-1]) / 2.0)


# ---------------------------------------------------------------- synthesis

def test_lorentzian_height_and_area():
    freqs = np.linspace(-50, 50, 20001)
    integral, fwhm = 0.7, 1.3
    amps = lorentzian(freqs, 0.0, integral, fwhm)
    assert amps.max() == pytest.approx(2 * integral / (math.pi * fwhm), rel=1e-6)
    assert uniform_integral(amps, freqs) == pytest.approx(integral, rel=2e-2)


def test_synthesize_peak_heights():
    # isolated line, so the partner tail does not shift the maximum
    s = make_spectrum(LineIntensities(h0=1.0, h1=0.0, f0=0, f1=0))
    idx0 = np.argmin(np.abs(s.freqs + 2.9))
    height = 2 * 1.0 / (math.pi * 1.0)
    assert s.amps[idx0] == pytest.approx(height, rel=1e-12)


def test_synthesize_equilibrium_doublet_symmetric():
    s = make_spectrum(EQ)
    idx0 = np.argmin(np.abs(s.freqs + SYS.j_coupling / 2))
    idx1 = np.argmin(np.abs(s.freqs - SYS.j_coupling / 2))
    assert s.amps[idx0] == pytest.approx(s.amps[idx1], rel=1e-12)


def test_synthesize_degenerate_pps_has_one_line():
    ints = line_intensities(pps_modes(PpsLabel.P00, SYS))
    s = make_spectrum(ints, nucleus=2)
    idx1 = np.argmin(np.abs(s.freqs - SYS.j_coupling / 2))
    # only the tails of the 0-line remain at +J/2
    assert s.amps[idx1] < 0.02 * s.amps.max()


def test_synthesize_linearity():
    a = LineIntensities(h0=0.8, h1=0.1, f0=0, f1=0)
    b = LineIntensities(h0=0.1, h1=0.7, f0=0, f1=0)
    total = LineIntensities(h0=0.9, h1=0.8, f0=0, f1=0)
    sa, sb, st = make_spectrum(a), make_spectrum(b), make_spectrum(total)
    np.testing.assert_allclose(sa.amps + sb.amps, st.amps, atol=1e-15)


def test_synthesize_integral_conservation():
    # single line on a grid spanning +-20 fwhm; a Lorentzian truncated
    # there keeps 1 - (2/pi)*arctan(40) ~ 98.4% of its area, so compare
    # against the analytic truncated value tightly and the nominal
    # integral to 2%
    s = synthesize(
        LineIntensities(h0=0.9, h1=0.0, f0=0, f1=0), SYS, 2, 1.0, 46.0, 2001
    )
    total = uniform_integral(s.amps, s.freqs)
    center, half = -SYS.j_coupling / 2.0, 0.5
    truncated = (0.9 / math.pi) * (
        math.atan((23.0 - center) / half) + math.atan((23.0 + center) / half)
    )
    assert total == pytest.approx(truncated, rel=5e-3)
    assert total == pytest.approx(0.9, rel=2e-2)


def test_synthesize_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        synthesize(EQ, SYS, 2, fwhm=1.0, span=40.0, points=101)


def test_synthesize_grid_must_cover_lines():
    with pytest.raises(ValueError):
        synthesize(EQ, SYS, 2, fwhm=1.0, span=10.0, points=1001)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([0.0, 1.0, 1.5]), np.zeros(3), 1)
    with pytest.raises(ValueError):
        Spectrum(np.linspace(0, 1, 5), np.zeros(5), 3)


# -------------------------------------------------------------------- noise

def test_add_noise_infinite_snr_is_identity():
    s = make_spectrum(EQ)
    assert add_noise(s, math.inf, 1) is s


def test_add_noise_deterministic():
    s = make_spectrum(EQ)
    n1 = add_noise(s, 100.0, 42)
    n2 = add_noise(s, 100.0, 42)
    assert np.array_equal(n1.amps, n2.amps)
    n3 = add_noise(s, 100.0, 43)
    assert not np.array_equal(n1.amps, n3.amps)


def test_add_noise_standard_deviation():
    s = Spectrum(np.linspace(-50, 50, 100000), np.zeros(100000) + 1.0, 1)
    noisy = add_noise(s, 50.0, 7)
    sd = np.std(noisy.amps - s.amps)
    assert sd == pytest.approx(1.0 / 50.0, rel=0.02)


def test_noise_floor_estimate():
    rng = np.random.default_rng(3)
    amps = rng.normal(0.0, 0.01, 20000)
    assert estimate_noise_floor(amps) == pytest.approx(0.01, rel=0.05)


# ---------------------------------------------------------------------- fit

def test_fit_recovers_noiseless_doublet():
    truth = LineIntensities(h0=0.9, h1=0.3, f0=0, f1=0)
    fit = fit_doublet(make_spectrum(truth), SYS, 1.0)
    assert fit.converged
    assert fit.peaks[0].center == pytest.approx(-2.9, abs=1e-6)
    assert fit.peaks[1].center == pytest.approx(2.9, abs=1e-6)
    assert fit.peaks[0].integral == pytest.approx(0.9, rel=1e-6)
    assert fit.peaks[1].integral == pytest.approx(0.3, rel=1e-6)
    assert fit.peaks[0].fwhm == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("scale", [0.01, 0.1, 1.0, 10.0])
def test_fit_noiseless_across_intensity_scales(scale):
    truth = LineIntensities(h0=0.9 * scale, h1=0.3 * scale, f0=0, f1=0)
    fit = fit_doublet(make_spectrum(truth), SYS, 1.0)
    assert fit.peaks[0].integral == pytest.approx(0.9 * scale, rel=1e-6)
    assert fit.peaks[1].integral == pytest.approx(0.3 * scale, rel=1e-6)


def test_fit_doublets_from_an_off_geometry_seed():
    s = make_spectrum(LineIntensities(h0=0.9, h1=0.3, f0=0, f1=0))
    seeds = [[(-2.8, 1.0, 1.2), (2.8, 0.2, 1.2)]]
    fits = fit_doublets(s.freqs, s.amps[None], seeds)
    assert fits.converged[0]
    np.testing.assert_allclose(fits.peaks[0, :, 1], (0.9, 0.3), rtol=1e-6)


def test_fit_monte_carlo_median_error_below_one_percent():
    truth = LineIntensities(h0=0.9, h1=0.3, f0=0, f1=0)
    clean = make_spectrum(truth)
    errors = []
    for seed in range(100):
        fit = fit_doublet(add_noise(clean, 100.0, seed), SYS, 1.0)
        errors.append(
            max(
                abs(fit.peaks[0].integral - 0.9) / 0.9,
                abs(fit.peaks[1].integral - 0.3) / 0.3,
            )
        )
    assert np.median(errors) < 0.01


def test_fit_degenerate_one_line_spectrum():
    # second line identically zero: its fitted integral must stay below
    # a noise-consistent bound and the fit is flagged
    ints = line_intensities(pps_modes(PpsLabel.P00, SYS))
    s = make_spectrum(ints, nucleus=2)
    fit = fit_doublet(s, SYS, 1.0)
    assert fit.converged
    assert fit.low_confidence
    floor = estimate_noise_floor(s.amps)
    bound = 3.0 * floor * math.pi * fit.peaks[1].fwhm / 2.0
    small = min(abs(p.integral) for p in fit.peaks)
    big = max(abs(p.integral) for p in fit.peaks)
    assert small < max(bound, 1e-9)
    assert big == pytest.approx(2 * SYS.k, rel=1e-6)


def test_fit_healthy_doublet_not_flagged():
    fit = fit_doublet(make_spectrum(LineIntensities(h0=0.9, h1=0.3, f0=0, f1=0)), SYS, 1.0)
    assert not fit.low_confidence


def test_fit_featureless_spectrum_is_low_confidence():
    s = Spectrum(np.linspace(-20, 20, 801), np.zeros(801), 2)
    fit = fit_doublet(s, SYS, 1.0)
    assert fit.converged
    assert fit.low_confidence


def test_fit_not_converged_carries_best_fit():
    from ppsrelax.spectra import NotConverged

    s = add_noise(make_spectrum(LineIntensities(h0=0.9, h1=0.3, f0=0, f1=0)), 50.0, 1)
    with pytest.raises(NotConverged) as excinfo:
        fit_doublet(s, SYS, 1.0, max_iter=1)
    best = excinfo.value.fit
    assert not best.converged
    assert best.iterations == 1
    assert len(best.peaks) == 2


def test_fit_rejects_short_spectrum():
    s = Spectrum(np.linspace(-20, 20, 40), np.zeros(40), 2)
    with pytest.raises(ValueError):
        fit_doublet(s, SYS, 1.0)


def test_fit_peaks_ordered_by_center():
    rng = np.random.default_rng(5)
    for seed in range(10):
        truth = LineIntensities(
            h0=rng.uniform(0.2, 1.0), h1=rng.uniform(0.2, 1.0), f0=0, f1=0
        )
        fit = fit_doublet(add_noise(make_spectrum(truth), 200.0, seed), SYS, 1.0)
        assert fit.peaks[0].center < fit.peaks[1].center


# --------------------------------------------------------------- batch fit

FREQS = np.linspace(-20.0, 20.0, 801)


def noisy_batch():
    """Spectra [14, 801] of random doublets at random noise levels, a
    one-line doublet and an empty spectrum, whose steps are all rejected."""
    rng = np.random.default_rng(7)
    rows = []
    for seed in range(12):
        truth = LineIntensities(h0=rng.uniform(-1, 1), h1=rng.uniform(-1, 1), f0=0, f1=0)
        rows.append(add_noise(make_spectrum(truth), rng.uniform(20, 200), seed).amps)
    rows.append(make_spectrum(line_intensities(pps_modes(PpsLabel.P00, SYS))).amps)
    rows.append(np.zeros(FREQS.size))
    return np.array(rows)


def fit_batch(amps, **options):
    return fit_doublets(FREQS, amps, doublet_seeds(FREQS, amps, SYS, 1.0), **options)


def assert_same_rows(fits, rows, reference, reference_rows=slice(None)):
    for name in fits._fields:
        np.testing.assert_array_equal(
            getattr(fits, name)[rows], getattr(reference, name)[reference_rows]
        )


@pytest.mark.parametrize("max_iter", [FIT_MAX_ITER, 5])
def test_batch_fit_matches_fitting_each_spectrum_alone(max_iter, monkeypatch):
    """Also with 3-row normal-equation chunks: the 14 rows then span 5
    chunks, the last one of 2 rows, and the working set shrinks across
    their borders."""
    amps = noisy_batch()
    alone = []
    for row in range(len(amps)):
        s = Spectrum(FREQS.copy(), amps[row].copy(), 2)
        try:
            alone.append(fit_doublet(s, SYS, 1.0, max_iter=max_iter))
        except spectra.NotConverged as exc:
            alone.append(exc.fit)
    for chunk in (spectra.NORMAL_EQUATION_ROWS, 3):
        monkeypatch.setattr(spectra, "NORMAL_EQUATION_ROWS", chunk)
        batch = fit_batch(amps, max_iter=max_iter)
        # rows leave the working set at different iterations
        assert len(set(batch.iterations.tolist())) > 1
        for row, fit in enumerate(alone):
            assert batch.fit(row) == fit


def explicit_jacobian(params):
    """Jacobian [N, 5] of the bi-Lorentzian at ``params`` written out
    column by column: d/dc and d/dI of each line, then d/dw of both."""
    columns = {4: 0.0}
    half = params[4] / 2.0
    for line in (0, 1):
        center, integral = params[line], params[2 + line]
        diff = FREQS - center
        denom = diff**2 + half**2
        columns[line] = integral / math.pi * 2.0 * half * diff / denom**2
        columns[2 + line] = half / (math.pi * denom)
        columns[4] = columns[4] + integral / math.pi * (diff**2 - half**2) / (2.0 * denom**2)
    return np.column_stack([columns[k] for k in sorted(columns)])


def bi_lorentzian(params):
    """The fitted model at ``params``, built from two one-line doublets."""
    mid, split = (params[0] + params[1]) / 2.0, params[1] - params[0]
    return sum(
        spectra.doublet_amps(FREQS - mid, pair, split, params[4])
        for pair in ((params[2], 0.0), (0.0, params[3]))
    )


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(-8.0, -0.5),
            st.floats(0.5, 8.0),
            st.floats(-2.0, 2.0),
            st.floats(-2.0, 2.0),
            st.floats(0.1, 2.0),
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_normal_equations_match_an_explicit_jacobian(rows, seed):
    """One Gram product gives the J^T J, J^T r and r.r that an explicit
    Jacobian gives column by column, and that Jacobian matches central
    differences of the model built from ``doublet_amps``."""
    params = np.array(rows)
    # a work buffer with spare rows, as the solver's shrinking working set has
    work = np.full((params.shape[1] + 1, len(params) + 2, FREQS.size), np.nan)
    # row r of params is fitted to spectrum 2 r of amps
    amps = np.random.default_rng(seed).normal(size=(2 * len(params), FREQS.size))
    rows = 2 * np.arange(len(params))
    ssr, gradient, hessian = spectra._normal_equations(FREQS, amps, rows, params, work)
    for row, p in enumerate(params):
        jac = explicit_jacobian(p)
        residual = (
            lorentzian(FREQS, p[0], p[2], p[4])
            + lorentzian(FREQS, p[1], p[3], p[4])
            - amps[rows[row]]
        )
        size = len(p)
        want_hessian = np.array(
            [[np.dot(jac[:, i], jac[:, j]) for j in range(size)] for i in range(size)]
        )
        want_gradient = np.array([np.dot(jac[:, i], residual) for i in range(size)])
        for got, want in (
            (hessian[row], want_hessian),
            (gradient[row], want_gradient),
            (ssr[row], np.dot(residual, residual)),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

        for k in range(size):
            step = np.zeros(size)
            step[k] = 1e-6 * max(1.0, abs(p[k]))
            central = (bi_lorentzian(p + step) - bi_lorentzian(p - step)) / (2.0 * step[k])
            # to the scale of the whole Jacobian: moving one center also
            # moves the other line's rounding, as the model is built
            np.testing.assert_allclose(central, jac[:, k], rtol=0, atol=1e-6 * np.abs(jac).max())


def test_fit_memory_does_not_grow_with_the_batch_beyond_amps():
    """The traced peak of one fit of 256 spectra stays below 3x their
    size: the normal equations are built in one fixed-depth buffer."""
    rng = np.random.default_rng(11)
    pairs = rng.uniform(-1.0, 1.0, size=(256, 2))
    amps = spectra.doublet_amps(FREQS, pairs, SYS.j_coupling, 1.0)
    amps = spectra.noisy_amps(amps, 100.0, range(len(amps)))
    seeds = doublet_seeds(FREQS, amps, SYS, 1.0)
    fit_doublets(FREQS, amps[:1], seeds[:1])  # first-call imports are not the fit's
    tracemalloc.start()
    try:
        fit_doublets(FREQS, amps, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * amps.nbytes


def test_zero_spectrum_row_leaves_other_rows_unchanged():
    amps = noisy_batch()
    fits = fit_batch(np.insert(amps, 4, 0.0, axis=0))
    assert_same_rows(fits, np.arange(len(amps) + 1) != 4, fit_batch(amps))
    assert fits.converged[4] and not fits.peaks[4, :, 1].any()
    assert fits.low_confidence[4]
    # every step on an empty spectrum is rejected: the damping (1e-3) grows
    # by 2, 4, 8, ... and passes the 1e14 stall limit at the 11th rejection
    assert fits.iterations[4] == 11
    # seeded at a real doublet, the lines of an empty spectrum end tiny but
    # not 0 over a noise floor of 0; they are flagged all the same
    seeds = doublet_seeds(FREQS, amps[:1], SYS, 1.0)
    seeded = fit_doublets(FREQS, np.zeros((1, FREQS.size)), seeds)
    assert seeded.peaks[0, :, 1].all() and seeded.low_confidence[0]


def test_singular_system_fails_only_its_row():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 5, 5))
    a = a @ a.swapaxes(1, 2) + 5.0 * np.eye(5)
    a[2] = 0.0
    b = rng.normal(size=(4, 5))
    x, solved = spectra._solve_rows(a, b)
    assert solved.tolist() == [True, True, False, True]
    for row in (0, 1, 3):
        np.testing.assert_array_equal(x[row], np.linalg.solve(a[row], b[row]))
    assert not x[2].any()


def test_singular_step_escalates_only_its_row(monkeypatch):
    amps = noisy_batch()
    reference = fit_batch(amps)
    solve = spectra._solve_rows
    calls = []

    def first_row_singular_once(a, b):
        x, solved = solve(a, b)
        if not calls:
            x[0], solved[0] = 0.0, False
        calls.append(len(b))
        return x, solved

    monkeypatch.setattr(spectra, "_solve_rows", first_row_singular_once)
    fits = fit_batch(amps)
    assert_same_rows(fits, slice(1, None), reference, slice(1, None))
    assert fits.converged[0]
    np.testing.assert_allclose(fits.peaks[0], reference.peaks[0], rtol=1e-6, atol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(*[st.floats(0.01, 2.0)] * 2),
    st.tuples(*[st.sampled_from([-1.0, 1.0])] * 2),
    st.tuples(*[st.floats(-1.0, 1.0)] * 2),
    st.floats(0.1, 2.0),
)
def test_noiseless_doublet_recovered(magnitudes, signs, offsets, fwhm):
    # fwhm >= 2 grid spacings; each center within one fwhm of its seed,
    # well inside the seed box of half the seed separation (2.9 Hz)
    integrals = np.multiply(magnitudes, signs)
    seed_centers = (-SYS.j_coupling / 2.0, SYS.j_coupling / 2.0)
    centers = np.add(seed_centers, np.multiply(offsets, fwhm))
    amps = sum(lorentzian(FREQS, c, i, fwhm) for c, i in zip(centers, integrals))[None]
    fits = fit_doublets(FREQS, amps, doublet_seeds(FREQS, amps, SYS, fwhm))
    assert fits.converged[0]
    np.testing.assert_allclose(fits.peaks[0, :, 1], integrals, rtol=1e-9)
    np.testing.assert_allclose(fits.peaks[0, :, 0], centers, rtol=1e-9)


# --------------------------------------------------------------- extraction

def test_extraction_fresh_00():
    ints = line_intensities(pps_modes(PpsLabel.P00, SYS))
    fit1 = fit_doublet(make_spectrum(ints, nucleus=1), SYS, 1.0)
    fit2 = fit_doublet(make_spectrum(ints, nucleus=2), SYS, 1.0)
    coeffs = coefficients_from_fits(fit1, fit2, eq_fit(1), eq_fit(2), PpsLabel.P00)
    assert coeffs.a_from_spin2 == pytest.approx(SYS.k / SYS.gamma2, rel=1e-6)
    assert coeffs.a_from_spin1 == pytest.approx(SYS.k / SYS.gamma1, rel=1e-6)
    assert coeffs.b == pytest.approx(0.0, abs=1e-6)
    assert coeffs.c == pytest.approx(0.0, abs=1e-6)


def test_extraction_equilibrium_state_gives_zero_a():
    fit1 = fit_doublet(make_spectrum(EQ, nucleus=1), SYS, 1.0)
    fit2 = fit_doublet(make_spectrum(EQ, nucleus=2), SYS, 1.0)
    coeffs = coefficients_from_fits(fit1, fit2, eq_fit(1), eq_fit(2), PpsLabel.P00)
    assert coeffs.a_from_spin2 == pytest.approx(0.0, abs=1e-9)
    assert coeffs.a_from_spin1 == pytest.approx(0.0, abs=1e-9)


def test_extraction_11_uses_swapped_lines():
    ints = line_intensities(pps_modes(PpsLabel.P11, SYS))
    fit1 = fit_doublet(make_spectrum(ints, nucleus=1), SYS, 1.0)
    fit2 = fit_doublet(make_spectrum(ints, nucleus=2), SYS, 1.0)
    coeffs = coefficients_from_fits(fit1, fit2, eq_fit(1), eq_fit(2), PpsLabel.P11)
    assert coeffs.a_from_spin2 == pytest.approx(SYS.k / SYS.gamma2, rel=1e-6)
    assert coeffs.b == pytest.approx(0.0, abs=1e-6)
    assert coeffs.c == pytest.approx(0.0, abs=1e-6)


def test_extraction_matches_mode_decomposition():
    """Full noiseless chain agrees with the direct coefficient split."""
    from ppsrelax.analysis import decompose
    from ppsrelax.relaxation import RelaxationRates, build_matrix, evolve_exact
    from ppsrelax.spins import equilibrium_modes

    rates = RelaxationRates(
        rho1=0.3125, rho2=0.33, rho12=0.33, sigma12=0.02, delta1=0.15, delta2=0.05
    )
    gamma = build_matrix(rates)
    m_inf = equilibrium_modes(SYS)
    for label in (PpsLabel.P00, PpsLabel.P11):
        for t in (0.0, 1.25, 2.5):
            m = evolve_exact(gamma, pps_modes(label, SYS), m_inf, t)
            truth = decompose(m, label)
            ints = line_intensities(m)
            fit1 = fit_doublet(make_spectrum(ints, nucleus=1), SYS, 1.0)
            fit2 = fit_doublet(make_spectrum(ints, nucleus=2), SYS, 1.0)
            coeffs = coefficients_from_fits(
                fit1, fit2, eq_fit(1), eq_fit(2), label
            )
            assert coeffs.a_from_spin2 == pytest.approx(
                truth.a / SYS.gamma2, abs=1e-6
            )
            assert coeffs.a_from_spin1 == pytest.approx(
                truth.a / SYS.gamma1, abs=1e-6
            )
            assert coeffs.b == pytest.approx(truth.b / SYS.gamma1, abs=1e-6)
            assert coeffs.c == pytest.approx(truth.c / SYS.gamma2, abs=1e-6)


def test_extraction_rejects_unconverged_fit():
    fit = eq_fit(1)
    bad = DoubletFit(
        peaks=fit.peaks,
        residual_norm=fit.residual_norm,
        iterations=fit.iterations,
        converged=False,
    )
    with pytest.raises(ValueError, match="converge"):
        coefficients_from_fits(bad, eq_fit(2), eq_fit(1), eq_fit(2), PpsLabel.P00)


def test_extraction_rejects_asymmetric_equilibrium():
    skewed = LineIntensities(h0=1.1, h1=1.0, f0=0.9407, f1=0.9407)
    bad_eq = fit_doublet(make_spectrum(skewed, nucleus=2), SYS, 1.0)
    fit1 = fit_doublet(make_spectrum(EQ, nucleus=1), SYS, 1.0)
    fit2 = fit_doublet(make_spectrum(EQ, nucleus=2), SYS, 1.0)
    with pytest.raises(InconsistentEquilibrium):
        coefficients_from_fits(fit1, fit2, eq_fit(1), bad_eq, PpsLabel.P00)


# --------------------------------------------------------------------- file

def test_spectrum_file_round_trip(tmp_path):
    s = make_spectrum(EQ)
    path = tmp_path / "spec.txt"
    save_spectrum(s, path, time=1.25, scenario_id="demo")
    loaded = load_spectrum(path)
    assert loaded.nucleus == s.nucleus
    np.testing.assert_array_equal(loaded.freqs, s.freqs)
    np.testing.assert_array_equal(loaded.amps, s.amps)


def test_load_spectrum_rejects_other_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello\n")
    with pytest.raises(ValueError):
        load_spectrum(path)
