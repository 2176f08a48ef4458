"""Property tests of the propagation core, the coefficient map and the
CSV round trip over random inputs (hypothesis, derandomized so that every
run draws the same examples)."""

import contextlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import evolve_ode, noisy_amps, recompose
from ppsrelax import _threads, run, spectra
from ppsrelax.analysis import compare_pps, decompose_rows
from ppsrelax.cli import EXIT_OK, main
from ppsrelax.relaxation import (
    RelaxationRates,
    build_matrix,
    diagonalize,
    linear_step,
    propagate,
    rate_matrix,
)
from ppsrelax.scenario import default_pipeline_scenario
from ppsrelax.spins import PpsLabel, SpinSystem

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
    # criterion 1's tolerance; the row at t = 0 is m0 exactly
    gamma = build_matrix(rates)
    times, states = evolve_ode(gamma, m0, m_inf, t_end, 1e-3)
    exact = propagate(gamma, m0, m_inf, times)
    assert np.max(np.abs(exact - states)) < 1e-8
    assert tuple(exact[0]) == m0


@PROPERTY
@given(dominant_rates(), rows, rows, st.lists(st.floats(0.0, 50.0), min_size=2, max_size=8))
def test_distance_to_equilibrium_never_grows(rates, m0, m_inf, times):
    """For a symmetric positive-definite G, d|M - M_inf|^2/dt =
    -2 (M - M_inf)^T G (M - M_inf) <= 0: the distance only shrinks."""
    states = propagate(build_matrix(rates), m0, m_inf, np.sort(times))
    distance = np.linalg.norm(states - m_inf, axis=-1)
    assert (np.diff(distance) <= 1e-14).all()


@PROPERTY
@given(dominant_rates(), st.lists(st.floats(0.0, 20.0), min_size=1, max_size=6, unique=True))
def test_11_is_00_under_flipped_interference_rates(rates, times):
    """P = diag(1, 1, -1) maps the fresh 11 state to the fresh 00 state and
    the rate matrix of (delta1, delta2) to that of (-delta1, -delta2), and
    the 00 coefficients read P M as the 11 coefficients read M: the two
    trajectories agree bit for bit."""
    sys_obj, times = SpinSystem(), sorted(times)
    flipped = replace(rates, delta1=-rates.delta1, delta2=-rates.delta2)
    state11 = compare_pps(build_matrix(rates), sys_obj, times, (PpsLabel.P11,))
    state00 = compare_pps(build_matrix(flipped), sys_obj, times, (PpsLabel.P00,))
    np.testing.assert_array_equal(state11[PpsLabel.P11], state00[PpsLabel.P00])


@st.composite
def safe_rate_tables(draw):
    """Rate rows [1-5, 6] inside the benchmark's Gershgorin-safe ranges,
    the interference rates up to its largest sweep scale (1.5): every
    matrix is positive definite."""
    bounds = [(0.28, 0.40)] * 3 + [(0.0, 0.03), (0.0, 0.18), (0.0, 0.06)]
    count = draw(st.integers(1, 5))
    return [[draw(st.floats(lo, hi)) for lo, hi in bounds] for _ in range(count)]


@PROPERTY
@given(
    safe_rate_tables(),
    st.lists(rows, min_size=1, max_size=4),
    rows,
    st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40),
    st.data(),
)
def test_a_state_does_not_depend_on_what_else_the_call_holds(table, m0, m_inf, times, data):
    """``propagate`` gives each state bit for bit on the whole grid, at
    each time alone and on the grid split in two, for a stack of matrices
    and for each matrix alone; ``linear_step`` gives a stack's states as
    each matrix's."""
    m0, split = np.array(m0), data.draw(st.integers(0, len(times)))
    gamma = diagonalize(rate_matrix(table)[:, None])  # broadcast over the rows of m0
    whole = propagate(gamma, m0, m_inf, times)
    alone = np.concatenate([propagate(gamma, m0, m_inf, [t]) for t in times], axis=-2)
    np.testing.assert_array_equal(alone, whole)
    parts = [propagate(gamma, m0, m_inf, grid) for grid in (times[:split], times[split:])]
    np.testing.assert_array_equal(np.concatenate(parts, axis=-2), whole)
    steps = linear_step(gamma.entries, m0, m_inf, 0.1)
    for rates, states, step in zip(table, whole, steps):
        single = diagonalize(rate_matrix(rates))
        np.testing.assert_array_equal(propagate(single, m0, m_inf, times), states)
        np.testing.assert_array_equal(linear_step(single.entries, m0, m_inf, 0.1), step)


@PROPERTY
@given(rows, labels)
def test_recompose_inverts_decompose(m, label):
    back = recompose(decompose_rows(m, label), label)
    np.testing.assert_allclose(back, m, rtol=0, atol=1e-15)


@PROPERTY
@given(rows, labels)
def test_decompose_inverts_recompose(abc, label):
    back = decompose_rows(recompose(abc, label), label)
    np.testing.assert_allclose(back, abc, rtol=0, atol=1e-15)


@st.composite
def run_configs(draw):
    """Config documents of small runs, each with a sweep block: a subset of
    the states, a grid of one to five times (one time: the grid ends half
    a step after its start), an snr (or "inf") and up to six delta_scale
    values."""
    start, step = draw(st.floats(0.0, 5.0)), draw(st.floats(0.01, 1.0))
    end = start + draw(st.sampled_from((0.5, 1, 2, 3, 4))) * step
    states = draw(st.lists(labels, min_size=1, unique=True))
    snr = draw(st.just("inf") | st.floats(100.0, 1e6))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    return {
        "schema_version": 1,
        "id": "round-trip",
        "system": {},
        "rates": {
            "rho1": 0.3125,
            "rho2": 0.33,
            "rho12": 0.33,
            "sigma12": 0.02,
            "delta1": 0.15,
            "delta2": 0.05,
        },
        "pps_labels": [label.value for label in states],
        "time_grid": {"start": start, "end": end, "step": step},
        "tau": min(0.1, end),
        "readout": "spectra",
        "noise": {"snr": snr, "seed": draw(st.integers(0, 2**32))},
        "sweep": {"parameter": "delta_scale", "values": values},
    }


@PROPERTY
@given(run_configs())
def test_report_reads_every_csv_the_runners_write(doc):
    """Every CSV that simulate, sweep and pipeline write passes report, and
    the summary stays bounded: at most 16 + labels lines for a simulate,
    8 for a sweep and 4 + 2 x labels for a pipeline."""
    count = len(doc["pps_labels"])
    with tempfile.TemporaryDirectory() as out:
        sweep = Path(out, "sweep.json")
        sweep.write_text(json.dumps(doc))
        scenario = Path(out, "scenario.json")
        scenario.write_text(json.dumps({k: v for k, v in doc.items() if k != "sweep"}))
        for command, config, bound in (
            ("simulate", scenario, 16 + count),
            ("sweep", sweep, 8),
            ("pipeline", scenario, 4 + 2 * count),
        ):
            assert main([command, "--config", str(config), "--out", out, "--quiet"]) == EXIT_OK
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                assert main(["report", str(Path(out, f"{command}.csv"))]) == EXIT_OK
            assert len(text.getvalue().splitlines()) <= bound


@st.composite
def noiseless_configs(draw):
    """Noiseless config documents in the style of the benchmark's: rates
    drawn from its ranges (every matrix positive definite, far inside the
    initial-rate window), the default system and spectrum, a subset of the
    states and a grid of two to five times."""
    start, step = draw(st.floats(0.0, 5.0)), draw(st.floats(0.005, 1.0))
    end = start + draw(st.integers(1, 4)) * step
    rates = {name: draw(st.floats(0.28, 0.40)) for name in ("rho1", "rho2", "rho12")}
    rates["sigma12"] = draw(st.floats(0.0, 0.03))
    rates["delta1"] = draw(st.floats(0.05, 0.12))
    rates["delta2"] = draw(st.floats(0.01, 0.04))
    return {
        "schema_version": 1,
        "id": "noiseless-round-trip",
        "system": {},
        "rates": rates,
        "pps_labels": [label.value for label in draw(st.lists(labels, min_size=1, unique=True))],
        "time_grid": {"start": start, "end": end, "step": step},
        "tau": min(0.1, end),
        "readout": "spectra",
        "noise": {"snr": "inf", "seed": draw(st.integers(0, 2**31 - 2))},
    }


@PROPERTY
@given(noiseless_configs())
def test_noiseless_pipeline_recovers_the_simulated_coefficients(doc):
    """At snr "inf" every pipeline row converges and reads simulate's
    coefficients of its (state, time) within 1e-9 of each value, floored
    at the value's scale k / gamma as the benchmark's gate reads them:
    A_proton = A / gamma2, A_fluorine = A / gamma1, B / gamma1, C / gamma2."""
    with tempfile.TemporaryDirectory() as out:
        config = Path(out, "scenario.json")
        config.write_text(json.dumps(doc))
        for command in ("simulate", "pipeline"):
            assert main([command, "--config", str(config), "--out", out, "--quiet"]) == EXIT_OK
        _, _, simulated = run._read_csv(Path(out, "simulate.csv"))
        _, _, fitted = run._read_csv(Path(out, "pipeline.csv"))
    sys_obj = SpinSystem()
    g1, g2 = sys_obj.gamma1, sys_obj.gamma2
    # two pipeline rows (nucleus 1, 2) per simulate row
    for name in ("pps", "t"):
        np.testing.assert_array_equal(fitted[name], np.repeat(simulated[name], 2))
    assert (fitted["converged"] == 1).all()
    a, b, c = (np.repeat(simulated[name], 2) for name in ("A", "B", "C"))
    want = np.column_stack((a / g2, a / g1, b / g1, c / g2))
    got = np.column_stack([fitted[name] for name in ("A_proton", "A_fluorine", "B", "C")])
    scale = sys_obj.k / np.array((g2, g1, g1, g2))
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(np.abs(want), scale))


PIPELINE = default_pipeline_scenario()
J_COUPLING, FWHM = PIPELINE.sys.j_coupling, PIPELINE.spectrum.fwhm
FREQS = spectra.frequency_grid(J_COUPLING, FWHM, PIPELINE.spectrum.span, PIPELINE.spectrum.points)
line_integrals = st.tuples(unit, unit)


def noisy_doublets(pairs, snr, seeds):
    """The spectra of the line-integral ``pairs`` on the pipeline grid,
    with each row's noise drawn from its own seed."""
    return noisy_amps(spectra.doublet_amps(FREQS, pairs, J_COUPLING, FWHM), snr, seeds)


def fit(amps, **options):
    return spectra.fit_doublets(FREQS, amps, J_COUPLING, FWHM, **options)


@PROPERTY
@given(
    st.integers(-1000, 1000),
    line_integrals.filter(lambda pair: min(map(abs, pair)) > 0.05),
    st.integers(0, 2**32 - 1),
)
def test_fit_of_a_scaled_spectrum_scales_its_integrals(exponent, pair, seed):
    """A spectrum scaled by 2^e fits to 2^e times the integrals and
    residual of the unscaled one: the squared residual of a tiny spectrum
    does not underflow, nor the Gram products of a huge one overflow."""
    amps = noisy_doublets([pair], 100.0, [seed])
    unscaled, scaled = fit(amps), fit(np.ldexp(amps, exponent))
    assert unscaled.converged[0] and scaled.converged[0]
    np.testing.assert_allclose(
        scaled.peaks[:, :, 1], np.ldexp(unscaled.peaks[:, :, 1], exponent), rtol=1e-9
    )
    np.testing.assert_allclose(
        scaled.residual_norm, np.ldexp(unscaled.residual_norm, exponent), rtol=1e-9
    )


@st.composite
def fit_placements(draw):
    """Spectra of random line integrals and noise, one random batch of
    them in random order, and the places a pipeline run can fit them in:
    the rows of a normal-equation chunk, the spectra of a fit batch, the
    live rows at which a batch hands its fits to the pool, the threads."""
    pairs = draw(st.lists(line_integrals, min_size=1, max_size=12))
    order = draw(st.permutations(range(len(pairs))))
    return {
        "pairs": pairs,
        "snr": draw(st.floats(20.0, 1000.0)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "batch": order[: draw(st.integers(1, len(pairs)))],
        "chunk": draw(st.integers(1, 8)),
        "batch_spectra": draw(st.integers(1, 12)),
        "pool_rows": draw(st.integers(0, 3)),
        "threads": draw(st.integers(1, 3)),
    }


@PROPERTY
@given(fit_placements())
def test_a_fit_does_not_depend_on_where_it_runs(place):
    """A spectrum's fit is bit-identical alone, inside any batch at any
    normal-equation chunk offset, and synthesized, degraded and fitted as
    the pipeline does, whichever batch, thread or straggler pool finishes
    it in either."""
    keys = np.array([(0, index, 1) for index in range(len(place["pairs"]))])
    seeds = [[place["seed"], *key] for key in keys.tolist()]
    amps = noisy_doublets(place["pairs"], place["snr"], seeds)
    alone = [fit(amps[row : row + 1]) for row in range(len(amps))]

    def assert_alone(fits, rows):
        for at, row in enumerate(rows):
            for name, value in zip(fits._fields, fits):
                np.testing.assert_array_equal(value[at], getattr(alone[row], name)[0], name)

    with (
        mock.patch.object(spectra, "NORMAL_EQUATION_ROWS", place["chunk"]),
        mock.patch.object(spectra, "BATCH_SAMPLES", place["batch_spectra"] * FREQS.size),
        mock.patch.object(spectra, "_POOL_ROWS", place["pool_rows"]),
        mock.patch.object(_threads, "_usable_cpus", lambda: place["threads"]),
    ):
        assert_alone(fit(amps[place["batch"]]), place["batch"])
        pairs = np.array(place["pairs"], dtype=float)
        fits = spectra.fit_noisy_doublets(
            FREQS, pairs, J_COUPLING, FWHM, place["snr"], place["seed"], keys
        )
        assert_alone(fits, range(len(amps)))


@PROPERTY
@given(
    st.integers(0, 2**160 - 1),
    st.integers(0, 5).flatmap(
        lambda width: st.lists(
            st.tuples(*[st.integers(0, 2**32 - 1)] * width), min_size=1, max_size=4
        )
    ),
)
def test_seed_words_are_numpy_seed_sequence(seed, keys):
    """The rows of ``_keyed_seed_words`` are ``SeedSequence([seed,
    *key]).generate_state(4, np.uint64)`` for seeds of one to five 32-bit
    words and keys of zero to five, so that the entropy runs both under
    and past SeedSequence's 4-word pool. ``_add_noise`` draws
    ``default_rng([seed, *key])``'s normals bit for bit from all of them,
    so each row's 128-bit PCG64 seeding steps are numpy's too."""
    words = spectra._keyed_seed_words(seed, np.array(keys, dtype=np.int64))
    assert words.dtype == np.uint64 and words.shape == (len(keys), 4)
    noisy = spectra._add_noise(np.ones((len(keys), 16)), 1.0, words)
    for row, drawn, key in zip(words, noisy, keys):
        entropy = [seed, *key]
        expected = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
        np.testing.assert_array_equal(row, expected)
        np.testing.assert_array_equal(drawn, 1.0 + np.random.default_rng(entropy).standard_normal(16))


@PROPERTY
@given(
    st.integers(2**32, 2**130),
    st.lists(st.tuples(*[st.integers(0, 2**32 - 1)] * 3), min_size=2, max_size=40),
)
def test_keyed_noise_is_default_rng_of_its_keys(seed, keys):
    """``_add_noise`` draws the spectra of ``_keyed_seed_words``, as the
    pipeline hands it them, from ``default_rng([seed, *key])`` bit for
    bit: PCG64 reads each row of the words raw, so they are C-contiguous
    rows, not the transpose of the hash's [4, S] output."""
    words = spectra._keyed_seed_words(seed, np.array(keys, dtype=np.int64))
    noisy = spectra._add_noise(np.ones((len(keys), 16)), 1.0, words)
    for row, key in zip(noisy, keys):
        drawn = np.random.default_rng([seed, *key]).standard_normal(16)
        np.testing.assert_array_equal(row, 1.0 + drawn)


@PROPERTY
@given(st.lists(line_integrals, min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_chi2_stop_ends_near_the_tight_fit(pairs, seed):
    """On noisy spectra (snr 100) a fit that stops at a chi^2 change of
    FIT_DCHI2 ends within 5 FIT_DCHI2 in chi^2 of the fit that runs on
    to a relative change of 1e-10 in its squared residual, chi^2 being
    the squared residual over the tight fit's noise variance
    ssr / (N - 5), and converges as that fit does; rows with a line at the
    noise level (``low_confidence`` in either fit) may end in another
    local minimum."""
    amps = noisy_doublets(pairs, 100.0, [[seed, row] for row in range(len(pairs))])
    stopped = fit(amps)
    with mock.patch.object(spectra, "FIT_DCHI2", (FREQS.size - 5) * 1e-10):
        tight = fit(amps)
    np.testing.assert_array_equal(stopped.converged, tight.converged)
    confident = ~(stopped.low_confidence | tight.low_confidence)
    # (ssr - tight ssr) / (tight ssr / (N - 5)), free of the spectrum's scale
    ratio = stopped.residual_norm[confident] / tight.residual_norm[confident]
    dchi2 = (FREQS.size - 5) * (ratio**2 - 1)
    assert np.all(dchi2 <= 5 * spectra.FIT_DCHI2), dchi2
