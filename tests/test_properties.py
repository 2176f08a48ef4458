"""Property tests of the propagation core, the coefficient map and the
CSV round trip over random inputs (hypothesis, derandomized so that every
run draws the same examples)."""

import contextlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import evolve_ode, recompose
from ppsrelax.analysis import CoefficientTriple, compare_pps, decompose
from ppsrelax.cli import EXIT_OK, main
from ppsrelax.relaxation import RelaxationRates, build_matrix, evolve_exact, propagate
from ppsrelax.spins import ModeVector, PpsLabel, SpinSystem

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
    times, states = evolve_ode(gamma, ModeVector(*m0), ModeVector(*m_inf), t_end, 1e-3)
    exact = propagate(gamma, m0, m_inf, times)
    assert np.max(np.abs(exact - states)) < 1e-8


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
    np.testing.assert_array_equal(
        state11.coefficients[PpsLabel.P11], state00.coefficients[PpsLabel.P00]
    )


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


@st.composite
def run_configs(draw):
    """Config documents of small runs, each with a sweep block: a subset of
    the states, a grid of two to five times, an snr (or "inf") and up to
    six delta_scale values."""
    start, step = draw(st.floats(0.0, 5.0)), draw(st.floats(0.01, 1.0))
    end = start + draw(st.integers(1, 4)) * step
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
