import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import noisy_amps
from ppsrelax import spectra
from ppsrelax.spectra import (
    FIT_MAX_ITER,
    GridTooCoarse,
    InconsistentEquilibrium,
    coefficient_rows,
    doublet_amps,
    fit_doublets,
    frequency_grid,
    lorentzian,
)
from ppsrelax.spins import PpsLabel, SpinSystem, doublet_pairs, equilibrium_modes, pps_modes

SYS = SpinSystem(gamma1=0.9407, gamma2=1.0, k=0.5, j_coupling=5.8)

#: equilibrium line-integral pairs: (f0, f1) of nucleus 1, (h0, h1) of nucleus 2
EQ = doublet_pairs(equilibrium_modes(SYS))

FREQS = frequency_grid(SYS.j_coupling, 1.0, 40.0, 801)


def spectrum(pair, snr=math.inf, seed=0):
    """Amplitudes [N] on FREQS of the doublet with the line integrals
    ``pair`` (0-line, 1-line) and linewidth 1 Hz, with white noise of sd
    max|amps| / snr drawn from ``default_rng(seed)``."""
    return noisy_amps(doublet_amps(FREQS, [pair], SYS.j_coupling, 1.0), snr, [seed])[0]


def fit_batch(amps):
    return fit_doublets(FREQS, amps, SYS.j_coupling, 1.0)


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
    amps = spectrum((1.0, 0.0))
    idx0 = np.argmin(np.abs(FREQS + 2.9))
    height = 2 * 1.0 / (math.pi * 1.0)
    assert amps[idx0] == pytest.approx(height, rel=1e-12)


def test_synthesize_equilibrium_doublet_symmetric():
    amps = spectrum(EQ[1])
    idx0 = np.argmin(np.abs(FREQS + SYS.j_coupling / 2))
    idx1 = np.argmin(np.abs(FREQS - SYS.j_coupling / 2))
    assert amps[idx0] == pytest.approx(amps[idx1], rel=1e-12)


def test_synthesize_degenerate_pps_has_one_line():
    amps = spectrum(doublet_pairs(pps_modes(PpsLabel.P00, SYS))[1])
    idx1 = np.argmin(np.abs(FREQS - SYS.j_coupling / 2))
    # only the tails of the 0-line remain at +J/2
    assert amps[idx1] < 0.02 * amps.max()


def test_synthesize_linearity():
    a, b, total = doublet_amps(FREQS, [(0.8, 0.1), (0.1, 0.7), (0.9, 0.8)], SYS.j_coupling, 1.0)
    np.testing.assert_allclose(a + b, total, atol=1e-15)


def test_synthesize_integral_conservation():
    # single line on a grid spanning +-20 fwhm; a Lorentzian truncated
    # there keeps 1 - (2/pi)*arctan(40) ~ 98.4% of its area, so compare
    # against the analytic truncated value tightly and the nominal
    # integral to 2%
    freqs = frequency_grid(SYS.j_coupling, 1.0, 46.0, 2001)
    total = uniform_integral(doublet_amps(freqs, (0.9, 0.0), SYS.j_coupling, 1.0), freqs)
    center, half = -SYS.j_coupling / 2.0, 0.5
    truncated = (0.9 / math.pi) * (
        math.atan((23.0 - center) / half) + math.atan((23.0 + center) / half)
    )
    assert total == pytest.approx(truncated, rel=5e-3)
    assert total == pytest.approx(0.9, rel=2e-2)


def test_synthesize_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        frequency_grid(SYS.j_coupling, fwhm=1.0, span=40.0, points=101)


def test_synthesize_grid_must_cover_lines():
    with pytest.raises(ValueError):
        frequency_grid(SYS.j_coupling, fwhm=1.0, span=10.0, points=1001)


# -------------------------------------------------------------------- noise

def test_add_noise_standard_deviation():
    words = spectra._keyed_seed_words(7, np.zeros((1, 3), dtype=np.int64))
    noisy = spectra._add_noise(np.ones((1, 100000)), 50.0, words)
    assert np.std(noisy - 1.0) == pytest.approx(1.0 / 50.0, rel=0.02)


@pytest.mark.parametrize("seed", [-1, [3, -1]])
def test_negative_noise_seed_raises(seed):
    """Spectrum k's noise seed is [seed, *keys[k]]; a negative part
    anywhere in it raises ValueError rather than wrapping."""
    seed, *key = np.atleast_1d(seed).tolist()
    with pytest.raises(ValueError):
        spectra.fit_noisy_doublets(FREQS, [EQ[1]], SYS.j_coupling, 1.0, 10.0, seed, [key])


#: seeds of one to five 32-bit words
PINNED_SEEDS = (0, 7, 2**31 - 1, 2**32, 2**40 + 17, 2**64 + 5, 2**96 + 3, 2**128 + 2**32)


def pinned_keys(width):
    """Three keys [3, width]: all zeros, small words, and words at 2^32 - 1.
    With the words of a seed, widths 0 to 5 run the entropy both under
    and past SeedSequence's 4-word pool."""
    return np.array(
        [[0] * width, [3 * i + 1 for i in range(width)], [2**32 - 1 - i for i in range(width)]],
        dtype=np.int64,
    )


def test_noise_streams_are_default_rng_bit_for_bit():
    """The hashed words of every pipeline noise stream are those of
    numpy's SeedSequence([seed, *key]), and ``_add_noise`` draws
    ``default_rng([seed, *key])``'s normals from them bit for bit."""
    amps = doublet_amps(FREQS, [(0.9, 0.3)] * 3, SYS.j_coupling, 1.0)
    sd = np.abs(amps).max(axis=1) / 50.0
    for seed in PINNED_SEEDS:
        for width in range(6):
            keys = pinned_keys(width)
            words = spectra._keyed_seed_words(seed, keys)
            assert words.dtype == np.uint64 and words.shape == (len(keys), 4)
            noisy = spectra._add_noise(amps.copy(), 50.0, words)
            for row, key in enumerate(keys.tolist()):
                entropy = [seed, *key]
                want = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
                np.testing.assert_array_equal(words[row], want, err_msg=f"{entropy}")
                noise = np.random.default_rng(entropy).standard_normal(FREQS.size)
                np.testing.assert_array_equal(
                    noisy[row], amps[row] + sd[row] * noise, err_msg=f"{entropy}"
                )


@pytest.mark.parametrize("seeds", [[[1]], [[1], [2], [3], [4]]])
def test_noise_needs_one_seed_per_row(seeds):
    """Spectrum k's seed is [seed, *keys[k]]: one key per spectrum."""
    with pytest.raises(ValueError):
        spectra.fit_noisy_doublets(FREQS, [EQ[1]] * 3, SYS.j_coupling, 1.0, 10.0, 3, seeds)


# ---------------------------------------------------------------------- fit

def test_fit_recovers_noiseless_doublet():
    fits = fit_batch(spectrum((0.9, 0.3))[None])
    assert fits.converged[0]
    (center0, integral0, fwhm0), (center1, integral1, _) = fits.peaks[0]
    assert center0 == pytest.approx(-2.9, abs=1e-6)
    assert center1 == pytest.approx(2.9, abs=1e-6)
    assert integral0 == pytest.approx(0.9, rel=1e-6)
    assert integral1 == pytest.approx(0.3, rel=1e-6)
    assert fwhm0 == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("scale", [0.01, 0.1, 1.0, 10.0])
def test_fit_noiseless_across_intensity_scales(scale):
    fits = fit_batch(spectrum((0.9 * scale, 0.3 * scale))[None])
    np.testing.assert_allclose(fits.peaks[0, :, 1], (0.9 * scale, 0.3 * scale), rtol=1e-6)


def monte_carlo_batch():
    """100 spectra of the doublet (0.9, 0.3) at snr 100, seeds 0-99."""
    clean = spectrum((0.9, 0.3))
    return noisy_amps(np.repeat(clean[None], 100, axis=0), 100.0, range(100))


def test_fit_monte_carlo_median_error_below_one_percent():
    integrals = fit_batch(monte_carlo_batch()).peaks[:, :, 1]
    errors = np.abs(integrals - (0.9, 0.3)) / (0.9, 0.3)
    assert np.median(errors.max(axis=1)) < 0.01


def test_fit_skips_the_evaluation_of_a_step_that_cannot_pass_the_stop_test(monkeypatch):
    """A row retires once its next step predicts a reduction within rtol,
    without evaluating that step, and the start of every row comes from
    the shared doublet geometry, not from the per-row kernel: on the
    Monte Carlo batch the fit takes at most 3 normal-equation row
    evaluations per spectrum (4.44 when every converged row evaluated its
    last step and the start, 3.44 when only the start was)."""
    amps = monte_carlo_batch()
    normal_equations = spectra._normal_equations
    evaluated = []

    def counted(freqs, amps, rows, params, work):
        evaluated.append(len(params))
        return normal_equations(freqs, amps, rows, params, work)

    monkeypatch.setattr(spectra, "_normal_equations", counted)
    fits = fit_batch(amps)
    assert fits.converged.all()
    assert sum(evaluated) <= 3.0 * len(amps)


def test_fit_degenerate_one_line_spectrum():
    # second line identically zero: its fitted integral must stay below
    # a noise-consistent bound and the fit is flagged
    amps = spectrum(doublet_pairs(pps_modes(PpsLabel.P00, SYS))[1])
    fits = fit_batch(amps[None])
    assert fits.converged[0]
    assert fits.low_confidence[0]
    floor = max(fits.residual_norm[0], np.finfo(float).eps)
    bound = 3.0 * floor * math.pi * fits.peaks[0, 1, 2] / 2.0
    integrals = np.abs(fits.peaks[0, :, 1])
    assert integrals.min() < max(bound, 1e-9)
    assert integrals.max() == pytest.approx(2 * SYS.k, rel=1e-6)


def test_fit_healthy_doublet_not_flagged():
    assert not fit_batch(spectrum((0.9, 0.3))[None]).low_confidence[0]


def test_fit_featureless_spectrum_is_low_confidence():
    fits = fit_batch(np.zeros((1, FREQS.size)))
    assert fits.converged[0]
    assert fits.low_confidence[0]


def test_fit_not_converged_carries_best_fit(monkeypatch):
    monkeypatch.setattr(spectra, "FIT_MAX_ITER", 1)
    fits = fit_batch(spectrum((0.9, 0.3), 50.0, 1)[None])
    assert not fits.converged[0]
    assert fits.iterations[0] == 1
    assert np.isfinite(fits.peaks[0]).all() and np.isfinite(fits.residual_norm[0])


def test_fit_non_finite_sample_is_not_converged():
    """Without a float warning, which the suite turns into an error: the
    fit runs with numpy's float warnings off, as in the pipeline."""
    for sample, residual_is in ((np.nan, math.isnan), (np.inf, math.isinf)):
        amps = spectrum(EQ[1])
        amps[400] = sample
        fits = fit_batch(amps[None])
        assert not fits.converged[0]
        assert residual_is(fits.residual_norm[0])
        # no peak is above a residual that is not finite
        assert fits.low_confidence[0]


@pytest.mark.parametrize(
    "pairs, snr, seed, keys",
    [
        ([EQ[1]], 0.0, 3, [[0]]),
        ([EQ[1]], 100.0, 3, [0]),
        ([EQ[1]], 100.0, 3, [[0], [1]]),
        ([EQ[1]], 100.0, 3, [[-1]]),
        ([EQ[1]], 100.0, 3, [[2**32]]),
        ([EQ[1]], 100.0, 3, [[0.5]]),
        ([(1.0, 1.0, 1.0)], 100.0, 3, [[0]]),
        ([EQ[1]], 100.0, 1.5, [[0]]),
        ([EQ[1]], math.inf, -1, [[0]]),
        ([EQ[1]], math.inf, 1.5, [[0]]),
    ],
    ids=[
        "snr", "keys-1d", "keys-count", "key-negative", "key-wide", "key-float", "pairs",
        "seed-float", "seed-negative-noiseless", "seed-float-noiseless",
    ],
)
def test_fit_noisy_doublets_rejects_its_arguments(pairs, snr, seed, keys):
    """A key that does not fit one 32-bit word would wrap into another
    spectrum's seed, not fail; the seed is checked at every snr, also
    where no noise is drawn."""
    with pytest.raises(ValueError):
        spectra.fit_noisy_doublets(FREQS, pairs, SYS.j_coupling, 1.0, snr, seed, keys)


@pytest.mark.parametrize(
    "fwhm, j_coupling, name",
    [
        (0.0, SYS.j_coupling, "fwhm"),
        (-1.0, SYS.j_coupling, "fwhm"),
        (math.nan, SYS.j_coupling, "fwhm"),
        (math.inf, SYS.j_coupling, "fwhm"),
        (1.0, math.nan, "j_coupling"),
        (1.0, math.inf, "j_coupling"),
        (1.0, -math.inf, "j_coupling"),
    ],
)
def test_fits_reject_a_width_or_coupling_they_cannot_fit(fwhm, j_coupling, name):
    """Both fit calls raise ValueError naming the argument. A zero width
    ended in ZeroDivisionError, a negative one in converged fits of
    negated integrals, a NaN or inf width or a NaN coupling in every row
    unconverged, and an infinite coupling in converged rows centred at
    +-inf."""
    pairs, keys = [EQ[0], EQ[1]], [[4, 0, 1], [4, 0, 2]]
    amps = doublet_amps(FREQS, pairs, SYS.j_coupling, 1.0)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        fit_doublets(FREQS, amps, j_coupling, fwhm)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        spectra.fit_noisy_doublets(FREQS, pairs, j_coupling, fwhm, 100.0, 1, keys)


@pytest.mark.parametrize("shape", [(801,), (3, 800)])
def test_fit_rejects_amps_that_are_not_rows_on_the_grid(shape):
    with pytest.raises(ValueError, match=re.escape(f"need amps [S, 801], got {shape}")):
        fit_doublets(FREQS, np.zeros(shape), SYS.j_coupling, 1.0)


def test_numpy_int_seed_draws_the_noise_of_its_python_int():
    """An np.int64 seed, which has no ``bit_length``, is hashed as the
    Python int of its value: the fits are those of that int."""
    pairs, keys, seed = [EQ[0], EQ[1]], [[0, 0, 1], [0, 0, 2]], 2**40 + 5
    want = spectra.fit_noisy_doublets(FREQS, pairs, SYS.j_coupling, 1.0, 50.0, seed, keys)
    got = spectra.fit_noisy_doublets(FREQS, pairs, SYS.j_coupling, 1.0, 50.0, np.int64(seed), keys)
    for field, value in zip(want._fields, got):
        np.testing.assert_array_equal(value, getattr(want, field), err_msg=field)


def test_fit_rejects_short_spectrum():
    with pytest.raises(ValueError):
        fit_doublets(np.linspace(-20, 20, 40), np.zeros((1, 40)), SYS.j_coupling, 1.0)


@pytest.mark.parametrize(
    "freqs",
    [
        FREQS[::-1],
        np.concatenate((FREQS[:400], FREQS[400:] + 0.01)),
        np.where(FREQS == 0, np.nan, FREQS),
    ],
    ids=["reversed", "uneven", "nan"],
)
def test_fit_rejects_a_grid_that_is_not_increasing_and_uniform(freqs):
    """The fit reads its minimum width and center box off the first grid
    step, so a reversed or uneven grid would give it wrong ones."""
    with pytest.raises(ValueError, match="strictly increasing and uniform"):
        fit_doublets(freqs, spectrum(EQ[1])[None], SYS.j_coupling, 1.0)


def test_damping_factor_rounds_as_python_float_power():
    """The fit scales an accepted row's damping by max(1/3, 1 - (2 g - 1)^3)
    of its gain ratio g in numpy, through ``np.float_power`` (C ``pow``)
    and ``np.fmax``: bit for bit the Python float loop it replaced, a NaN
    gain included, from which ``np.power``'s cube differs now and then."""
    rng = np.random.default_rng(11)
    gain = np.concatenate(
        (rng.uniform(-2.0, 3.0, 100_000), rng.normal(0.5, 1e-3, 10_000), [np.nan])
    )
    want = [max(1.0 / 3.0, 1.0 - (2.0 * g - 1.0) ** 3) for g in gain.tolist()]
    got = np.fmax(1.0 / 3.0, 1.0 - np.float_power(2.0 * gain - 1.0, 3))
    np.testing.assert_array_equal(got.view(np.int64), np.array(want).view(np.int64))


def test_fit_peaks_ordered_by_center():
    rng = np.random.default_rng(5)
    pairs = [(rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)) for _ in range(10)]
    amps = noisy_amps(doublet_amps(FREQS, pairs, SYS.j_coupling, 1.0), 200.0, range(10))
    centers = fit_batch(amps).peaks[:, :, 0]
    assert (centers[:, 0] < centers[:, 1]).all()


# --------------------------------------------------------------- batch fit

def noisy_batch():
    """Spectra [14, 801] of random doublets at random noise levels, a
    one-line doublet and an empty spectrum, whose steps are all rejected."""
    rng = np.random.default_rng(7)
    rows = []
    for seed in range(12):
        pair = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        rows.append(spectrum(pair, rng.uniform(20, 200), seed))
    rows.append(spectrum(doublet_pairs(pps_modes(PpsLabel.P00, SYS))[1]))
    rows.append(np.zeros(FREQS.size))
    return np.array(rows)


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
    monkeypatch.setattr(spectra, "FIT_MAX_ITER", max_iter)
    alone = [fit_batch(amps[row : row + 1]) for row in range(len(amps))]
    for chunk in (spectra.NORMAL_EQUATION_ROWS, 3):
        monkeypatch.setattr(spectra, "NORMAL_EQUATION_ROWS", chunk)
        batch = fit_batch(amps)
        # rows leave the working set at different iterations
        assert len(set(batch.iterations.tolist())) > 1
        for row, fit in enumerate(alone):
            assert_same_rows(batch, slice(row, row + 1), fit)


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


def assert_explicit_normal_equations(equations, params, amps):
    """The squared residual, J^T r and J^T J ``equations`` of the rows
    ``params`` [S, 5] against ``amps`` [S, N] equal those summed column by
    column from an explicit Jacobian."""
    ssr, gradient, hessian = equations
    for row, p in enumerate(params):
        jac = explicit_jacobian(p)
        residual = (
            lorentzian(FREQS, p[0], p[2], p[4]) + lorentzian(FREQS, p[1], p[3], p[4]) - amps[row]
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
    differences of the model built from ``doublet_amps``. The start
    evaluation gives them too, for rows at one shared geometry (the
    first row's centers and width) with their own integrals, one pair of
    them zero."""
    params = np.array(rows)
    # a work buffer with spare rows, as the solver's shrinking working set has
    work = np.full((params.shape[1] + 1, len(params) + 2, FREQS.size), np.nan)
    # row r of params is fitted to spectrum 2 r of amps
    amps = np.random.default_rng(seed).normal(size=(2 * len(params), FREQS.size))
    rows = 2 * np.arange(len(params))
    equations = spectra._normal_equations(FREQS, amps, rows, params, work)
    assert_explicit_normal_equations(equations, params, amps[rows])

    start = np.repeat(params[:1], len(params) + 1, axis=0)
    start[:-1, 2:4] = params[:, 2:4]
    start[-1, 2:4] = 0.0
    spectra_at_start = amps[: len(start)]
    # two rows at a time: the rows span chunks
    equations = spectra._start_equations(
        FREQS, spectra_at_start, start[0, :2], start[0, 4], start[:, 2:4], work[:, :2]
    )
    assert_explicit_normal_equations(equations, start, spectra_at_start)

    size = params.shape[1]
    for p in params:
        jac = explicit_jacobian(p)
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
    amps = noisy_amps(amps, 100.0, range(len(amps)))
    fit_batch(amps[:1])  # first-call imports are not the fit's
    tracemalloc.start()
    try:
        fit_batch(amps)
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
    # fwhm >= 2 grid spacings; each center within one fwhm of its start
    # at -J/2 or +J/2, well inside the center box of J/2 (2.9 Hz)
    integrals = np.multiply(magnitudes, signs)
    starts = (-SYS.j_coupling / 2.0, SYS.j_coupling / 2.0)
    centers = np.add(starts, np.multiply(offsets, fwhm))
    amps = sum(lorentzian(FREQS, c, i, fwhm) for c, i in zip(centers, integrals))[None]
    fits = fit_doublets(FREQS, amps, SYS.j_coupling, fwhm)
    assert fits.converged[0]
    np.testing.assert_allclose(fits.peaks[0, :, 1], integrals, rtol=1e-9)
    np.testing.assert_allclose(fits.peaks[0, :, 0], centers, rtol=1e-9)


@pytest.mark.parametrize("pair", [(1.0, 1e-3), (1e-3, -1.0)])
def test_noiseless_doublet_fits_past_the_chi2_stop(pair):
    """A noiseless doublet with a line near 0, as a pseudo-pure spectrum
    has, still fits to 1e-9 with FIT_DCHI2 at its default: each of
    its steps removes nearly all of its residual, far more than FIT_DCHI2
    of it, so it runs on to the rounding floor."""
    assert spectra.FIT_DCHI2 == 1e-3
    fits = fit_batch(spectrum(pair)[None])
    assert fits.converged[0]
    np.testing.assert_allclose(fits.peaks[0, :, 1], pair, rtol=1e-9)
    np.testing.assert_allclose(fits.peaks[0, :, 0], (-2.9, 2.9), rtol=1e-9)


# --------------------------------------------------------------- extraction

def extract(modes, label, eq=EQ):
    """Coefficient row (a_from_spin2, a_from_spin1, b, c) of the noiseless
    doublets of the mode row ``modes``, normalized by the fitted doublets
    of the line-integral pairs ``eq`` (nucleus 1, nucleus 2)."""
    pairs = np.concatenate((doublet_pairs(modes), eq))
    fits = fit_batch(doublet_amps(FREQS, pairs, SYS.j_coupling, 1.0))
    assert fits.converged.all()
    lines1, lines2, eq1, eq2 = fits.peaks[:, :, 1]
    return coefficient_rows(lines1, lines2, eq1, eq2, label)


def test_extraction_fresh_00():
    a2, a1, b, c = extract(pps_modes(PpsLabel.P00, SYS), PpsLabel.P00)
    assert a2 == pytest.approx(SYS.k / SYS.gamma2, rel=1e-6)
    assert a1 == pytest.approx(SYS.k / SYS.gamma1, rel=1e-6)
    assert b == pytest.approx(0.0, abs=1e-6)
    assert c == pytest.approx(0.0, abs=1e-6)


def test_extraction_equilibrium_state_gives_zero_a():
    a2, a1, _, _ = extract(equilibrium_modes(SYS), PpsLabel.P00)
    assert a2 == pytest.approx(0.0, abs=1e-9)
    assert a1 == pytest.approx(0.0, abs=1e-9)


def test_extraction_11_uses_swapped_lines():
    a2, _, b, c = extract(pps_modes(PpsLabel.P11, SYS), PpsLabel.P11)
    assert a2 == pytest.approx(SYS.k / SYS.gamma2, rel=1e-6)
    assert b == pytest.approx(0.0, abs=1e-6)
    assert c == pytest.approx(0.0, abs=1e-6)


def test_extraction_matches_mode_decomposition():
    """Full noiseless chain agrees with the direct coefficient split."""
    from ppsrelax.analysis import compare_pps
    from ppsrelax.relaxation import RelaxationRates, build_matrix, propagate

    rates = RelaxationRates(
        rho1=0.3125, rho2=0.33, rho12=0.33, sigma12=0.02, delta1=0.15, delta2=0.05
    )
    labels, times = (PpsLabel.P00, PpsLabel.P11), (0.0, 1.25, 2.5)
    gamma = build_matrix(rates)
    table = compare_pps(gamma, SYS, times, labels)
    m0 = [pps_modes(label, SYS) for label in labels]
    for label, states in zip(labels, propagate(gamma, m0, equilibrium_modes(SYS), times)):
        for m, (a, b, c) in zip(states, table[label]):
            a2_fit, a1_fit, b_fit, c_fit = extract(m, label)
            assert a2_fit == pytest.approx(a / SYS.gamma2, abs=1e-6)
            assert a1_fit == pytest.approx(a / SYS.gamma1, abs=1e-6)
            assert b_fit == pytest.approx(b / SYS.gamma1, abs=1e-6)
            assert c_fit == pytest.approx(c / SYS.gamma2, abs=1e-6)


def test_extraction_rejects_asymmetric_equilibrium():
    skewed = (EQ[0], (1.1, 1.0))
    with pytest.raises(InconsistentEquilibrium):
        extract(equilibrium_modes(SYS), PpsLabel.P00, eq=skewed)


def test_equilibrium_asymmetry_is_judged_near_float_max():
    """The mean of an equilibrium doublet near the float maximum does not
    overflow to inf, so a 41 % asymmetry there is still rejected."""
    with pytest.raises(InconsistentEquilibrium):
        coefficient_rows([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.7e308, 1e308], PpsLabel.P00)


def test_coefficient_rows_reject_line_rows_3_wide():
    """Rows [4, 3] are mode rows, not line pairs: they used to be read by
    their first two columns."""
    with pytest.raises(ValueError, match=re.escape("(4, 3)")):
        coefficient_rows([[0.9, 0.1, 0.0]] * 4, [[0.9, 0.1]] * 4, EQ[0], EQ[1], PpsLabel.P00)


@pytest.mark.parametrize("eq2", [(np.nan, np.nan), (1.0, np.nan), (0.0, 0.0)])
def test_coefficient_rows_reject_nan_or_zero_equilibrium(eq2):
    with pytest.raises(InconsistentEquilibrium):
        coefficient_rows([0.9, 0.1], [0.9, 0.1], [1.0, 1.0], eq2, PpsLabel.P00)
