import ast
import io
import json
import math
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import noisy_amps
from ppsrelax import _threads, spectra
from ppsrelax.analysis import compare_pps
from ppsrelax.relaxation import (
    InitialRateWindowWarning,
    NotPositiveDefiniteWarning,
    RelaxationRates,
    build_matrix,
    propagate,
)
from ppsrelax import run as run_module
from ppsrelax.report import run_report
from ppsrelax.run import SchemaMismatch, _csv_text, run_pipeline, run_simulate, run_sweep
from ppsrelax.scenario import (
    MAX_TIME_SAMPLES,
    ConfigError,
    NoiseSpec,
    Scenario,
    SpectrumSpec,
    SweepSpec,
    TimeGrid,
    default_scenario,
    default_sweep,
    load_scenario,
    parse_scenario,
    parse_sweep,
    scenario_to_dict,
    sweep_rates,
)
from ppsrelax.spins import PpsLabel, SpinSystem, equilibrium_modes, pps_modes

DATA = Path(__file__).parent / "data"


def config_doc(**overrides):
    doc = {
        "schema_version": 1,
        "id": "test",
        "system": {},
        "rates": {
            "rho1": 0.3125,
            "rho2": 0.33,
            "rho12": 0.33,
            "sigma12": 0.02,
            "delta1": 0.15,
            "delta2": 0.05,
        },
        "pps_labels": ["00", "11"],
        "time_grid": {"start": 0.0, "end": 2.0, "step": 0.5},
        "tau": 0.1,
        "readout": "coefficients",
    }
    doc.update(overrides)
    return doc


# ------------------------------------------------------------------- config

def test_parse_minimal_config():
    scenario = parse_scenario(config_doc())
    assert scenario.scenario_id == "test"
    assert scenario.rates.delta1 == 0.15
    assert scenario.sys.gamma1 == 0.9407
    assert [l.value for l in scenario.pps_labels] == ["00", "11"]


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_scenario(config_doc(extra=1))


def test_unknown_rate_key_rejected():
    doc = config_doc()
    doc["rates"]["rho3"] = 0.1
    with pytest.raises(ConfigError, match="rho3"):
        parse_scenario(doc)


def test_missing_rate_named_in_error():
    doc = config_doc()
    del doc["rates"]["rho12"]
    with pytest.raises(ConfigError, match="rates.rho12"):
        parse_scenario(doc)


def test_schema_version_checked():
    with pytest.raises(ConfigError, match="schema_version"):
        parse_scenario(config_doc(schema_version=2))


def test_bad_label_rejected():
    with pytest.raises(ConfigError, match="02"):
        parse_scenario(config_doc(pps_labels=["00", "02"]))


def test_bad_readout_rejected():
    with pytest.raises(ConfigError, match="readout"):
        parse_scenario(config_doc(readout="fourier"))


def test_noise_inf_sentinel():
    scenario = parse_scenario(config_doc(noise={"snr": "inf", "seed": 5}))
    assert math.isinf(scenario.noise.snr)
    round_trip = scenario_to_dict(scenario)
    assert round_trip["noise"]["snr"] == "inf"


def test_tau_must_fit_grid():
    with pytest.raises(ConfigError, match="tau"):
        parse_scenario(config_doc(tau=5.0))


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1,\n  broken\n}')
    with pytest.raises(ConfigError, match="line 2"):
        load_scenario(path)


def test_scenario_digest_is_stable():
    a = parse_scenario(config_doc(id=""))
    b = parse_scenario(config_doc(id=""))
    assert a.scenario_id == b.scenario_id
    assert a.scenario_id.startswith("scenario-")


def test_sweep_parse_and_parameter_resolution():
    doc = config_doc()
    doc["sweep"] = {"parameter": "delta_scale", "values": [0.0, 0.5, 1.0]}
    spec = parse_sweep(doc)
    scaled = RelaxationRates(*sweep_rates(spec.base, "delta_scale", [0.5])[0])
    assert scaled.delta1 == pytest.approx(0.075)
    assert scaled.delta2 == pytest.approx(0.025)
    single = RelaxationRates(*sweep_rates(spec.base, "rates.sigma12", [0.05])[0])
    assert single.sigma12 == 0.05


def test_sweep_rejects_unknown_parameter():
    doc = config_doc()
    doc["sweep"] = {"parameter": "rates.nope", "values": [1.0]}
    with pytest.raises(ConfigError, match="nope"):
        parse_sweep(doc)
    doc["sweep"] = {"parameter": "gamma_scale", "values": [1.0]}
    with pytest.raises(ConfigError, match="sweep.parameter"):
        parse_sweep(doc)


@pytest.mark.parametrize("section", ["system", "rates", "time_grid", "noise", "spectrum"])
def test_section_must_be_an_object(section):
    with pytest.raises(ConfigError, match=f"{section} must be a JSON object"):
        parse_scenario(config_doc(**{section: []}))


def test_output_key_rejected():
    with pytest.raises(ConfigError, match="unknown key.*output"):
        parse_scenario(config_doc(output="somewhere/else"))


def test_sweep_requires_values():
    doc = config_doc()
    doc["sweep"] = {"parameter": "delta_scale", "values": []}
    with pytest.raises(ConfigError):
        parse_sweep(doc)


def with_field(doc, path, value):
    """``doc`` with the field at the dotted ``path`` set to ``value``."""
    *sections, key = path.split(".")
    section = doc
    for name in sections:
        section = section.setdefault(name, {})
    section[key] = value
    return doc


@pytest.mark.parametrize(
    "path, value, named",
    [
        ("rates.rho1", True, "rates.rho1"),  # bool as float
        ("tau", "0.1", "tau"),  # numeric string as float
        ("time_grid.end", None, "time_grid.end"),  # null
        ("system.k", [0.5], "system.k"),  # list as float
        ("spectrum.points", 801.0, "spectrum.points"),  # float as int
        ("noise", {"snr": 100.0, "seed": 1.5}, "noise.seed"),  # float as int
        ("noise", {"snr": 100.0, "seed": -5}, "noise.seed"),  # negative seed
        ("pps_labels", [0, "11"], "pps_labels[0]"),  # int label
        ("id", 5, "id"),  # int id
        ("readout", 1, "readout"),
        ("schema_version", True, "schema_version"),
        ("schema_version", 1.0, "schema_version"),
        ("sweep.values", [0.0, "1"], "sweep.values[1]"),  # bad swept value
        ("sweep.values", [0.0, False], "sweep.values[1]"),
        ("spectrum.points", 10_000_000_000_000, "spectrum"),  # over the bound
        pytest.param("tau", 10**400, "tau", id="tau-10**400-tau"),  # beyond a float
        ("sweep.values", [0.0, 10**400], "sweep.values[1]"),
    ],
)
def test_config_type_rules(path, value, named):
    doc = with_field(config_doc(), path, value)
    parse = parse_scenario
    if path.startswith("sweep"):
        doc["sweep"]["parameter"] = "delta_scale"
        parse = parse_sweep
    with pytest.raises(ConfigError) as err:
        parse(doc)
    assert named in str(err.value)


def test_float_fields_widen_integers():
    scenario = parse_scenario(config_doc(time_grid={"end": 2, "step": 1}, tau=0))
    assert scenario.time_grid == TimeGrid(start=0.0, end=2.0, step=1.0)
    assert type(scenario.time_grid.end) is float and type(scenario.tau) is float
    assert '"end":2.0' in json.dumps(scenario_to_dict(scenario), separators=(",", ":"))


def test_missing_fields_take_class_defaults():
    doc = config_doc()
    del doc["readout"], doc["id"], doc["rates"]["delta1"], doc["time_grid"]["start"]
    scenario = parse_scenario(doc)
    assert scenario.readout == "coefficients"
    assert scenario.rates.delta1 == 0.0 and scenario.time_grid.start == 0.0
    assert scenario.sys == SpinSystem() and scenario.spectrum == SpectrumSpec()
    assert scenario.noise is None and scenario.scenario_id.startswith("scenario-")


@pytest.mark.parametrize(
    "grid",
    [
        {"end": math.inf, "step": 0.1},
        {"end": 1.0, "step": math.nan},
        {"start": -math.inf, "end": 1.0, "step": 0.1},
        {"end": 1e9, "step": 1e-3},
        {"end": 1e300, "step": 1e-300},
    ],
)
def test_time_grid_bounded_at_parse_time(grid, monkeypatch):
    def no_allocation(self):
        raise AssertionError("times() called while parsing")

    monkeypatch.setattr(TimeGrid, "times", no_allocation)
    with pytest.raises(ConfigError, match="time_grid"):
        parse_scenario(config_doc(time_grid=grid, tau=0.0))


def test_time_grid_sample_count_limit():
    largest = TimeGrid(end=MAX_TIME_SAMPLES - 1.0, step=1.0)
    assert largest.samples == MAX_TIME_SAMPLES
    assert TimeGrid(end=2.0, step=0.5).samples == len(TimeGrid(end=2.0, step=0.5).times())
    with pytest.raises(ConfigError, match="more than"):
        TimeGrid(end=float(MAX_TIME_SAMPLES), step=1.0)


finite = st.floats(-10.0, 10.0)
positive = st.floats(0.01, 10.0)


@st.composite
def scenarios(draw):
    gamma1, gamma2 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    start = draw(st.floats(0.0, 10.0))
    end = start + draw(positive)
    noise = draw(
        st.none()
        | st.builds(
            NoiseSpec,
            snr=st.just(math.inf) | st.floats(0.1, 1e6),
            seed=st.integers(0, 2**63),
        )
    )
    return Scenario(
        sys=SpinSystem(
            gamma1=gamma1,
            gamma2=gamma2,
            k=draw(st.floats(0.01, 0.5)),
            j_coupling=draw(positive),
            freq1=draw(st.floats(-1e9, 1e9)),
            freq2=draw(st.floats(-1e9, 1e9)),
        ),
        rates=RelaxationRates(*(draw(positive) for _ in range(3)), *(draw(finite) for _ in range(3))),
        pps_labels=tuple(draw(st.lists(st.sampled_from(list(PpsLabel)), min_size=1, max_size=6))),
        time_grid=TimeGrid(start=start, end=end, step=(end - start) / draw(st.integers(1, 1000))),
        tau=draw(st.floats(0.0, end)),
        readout=draw(st.sampled_from(["modes", "coefficients", "spectra"])),
        noise=noise,
        spectrum=SpectrumSpec(fwhm=draw(positive), span=draw(positive), points=draw(st.integers(2, 5000))),
        scenario_id=draw(st.text(min_size=1, max_size=12)),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scenarios())
def test_scenario_dict_round_trip(scenario):
    doc = json.loads(json.dumps(scenario_to_dict(scenario)))
    assert parse_scenario(doc) == scenario


# ----------------------------------------------------------------- simulate

def read_rows(path):
    header, rows = None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or not line:
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return header, rows


def test_simulate_csv_schema(tmp_path):
    paths = run_simulate(parse_scenario(config_doc()), tmp_path)
    header, rows = read_rows(paths[0])
    assert header == ["pps", "t", "c1", "c2", "c12", "A", "B", "C", "A_minus_A0"]
    assert rows[0]["pps"] == "00"
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[0]["A"]) == 0.5
    assert float(rows[0]["B"]) == 0.0
    assert float(rows[0]["A_minus_A0"]) == 0.0


def test_simulate_no_interference_degenerate_deviations(tmp_path):
    doc = config_doc()
    doc["rates"]["delta1"] = 0.0
    doc["rates"]["delta2"] = 0.0
    paths = run_simulate(parse_scenario(doc), tmp_path)
    _, rows = read_rows(paths[0])
    dev = {"00": [], "11": []}
    for row in rows:
        dev[row["pps"]].append(float(row["A_minus_A0"]))
    np.testing.assert_allclose(dev["00"], dev["11"], atol=1e-12)


def test_simulate_interference_orders_states(tmp_path):
    paths = run_simulate(parse_scenario(config_doc()), tmp_path)
    _, rows = read_rows(paths[0])
    a = {"00": {}, "11": {}}
    for row in rows:
        a[row["pps"]][float(row["t"])] = float(row["A"])
    for t in a["00"]:
        if t > 0:
            assert a["00"][t] > a["11"][t]


def test_simulate_deterministic(tmp_path):
    scenario = parse_scenario(config_doc())
    p1 = run_simulate(scenario, tmp_path / "a")[0]
    p2 = run_simulate(scenario, tmp_path / "b")[0]
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_simulate_emits_svg(tmp_path):
    """Every plot is well-formed XML whose title names the scenario, also
    when the id holds markup characters."""
    for index, scenario_id in enumerate(["test", "R&D <run 1>"]):
        doc = config_doc(id=scenario_id)
        paths = run_simulate(parse_scenario(doc), tmp_path / str(index), plot=True)
        svgs = [p for p in paths if p.endswith(".svg")]
        assert len(svgs) == 3
        for svg_path in svgs:
            text = Path(svg_path).read_text()
            assert text.startswith("<svg")
            assert "polyline" in text
            title = ElementTree.parse(svg_path).find("{http://www.w3.org/2000/svg}text")
            assert title.text.startswith(f"{scenario_id}: ")


#: The config of tests/data/golden_simulate.csv.
GOLDEN = config_doc(id="golden", pps_labels=["00"], time_grid={"start": 0.0, "end": 1.0, "step": 0.5})


def test_simulate_golden_file(tmp_path):
    """Schema and numeric formatting are frozen; regenerate
    tests/data/golden_simulate.csv deliberately when the format changes."""
    path = run_simulate(parse_scenario(GOLDEN), tmp_path)[0]
    assert Path(path).read_bytes() == (DATA / "golden_simulate.csv").read_bytes()


def test_simulate_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    """The CSV and the three plots are the same bytes whatever number of
    times simulate propagates and formats at once: one, sizes that leave
    a last block of one time (2 and 272 of 273 times), a partial last
    block, the CSV block, and more than the grid. The 01 row of the last
    time, 2.72, is one whose text changed when a block of one time was
    multiplied out by BLAS, whose one-row kernel (gemv) rounds otherwise
    than its many-row one (gemm)."""
    scenario = parse_scenario(
        config_doc(pps_labels=["00", "01", "10", "11"], time_grid={"end": 2.72, "step": 0.01})
    )
    default = run_simulate(scenario, tmp_path / "default", plot=True)
    assert len(default) == 4
    for block in (1, 2, 7, 64, 272, 1000):
        monkeypatch.setattr(run_module, "SIMULATE_BLOCK_TIMES", block)
        paths = run_simulate(scenario, tmp_path / str(block), plot=True)
        assert [Path(p).read_bytes() for p in paths] == [Path(p).read_bytes() for p in default]
        golden = run_simulate(parse_scenario(GOLDEN), tmp_path / f"golden{block}")[0]
        assert Path(golden).read_bytes() == (DATA / "golden_simulate.csv").read_bytes()


def test_simulate_columns_are_the_library_view(tmp_path, monkeypatch):
    """simulate's mode and A, B, C columns are, bit for bit, the states of
    one ``propagate`` call of all four states and ``compare_pps``'s rows
    on the whole grid, in blocks of 68 of 273 times: the last block holds
    a single time."""
    scenario = parse_scenario(
        config_doc(pps_labels=["00", "01", "10", "11"], time_grid={"end": 2.72, "step": 0.01})
    )
    tables = []

    def recording(template, table):
        tables.append(table.copy())
        return _csv_text(template, table)

    monkeypatch.setattr("ppsrelax.run._csv_text", recording)
    monkeypatch.setattr(run_module, "SIMULATE_BLOCK_TIMES", 68)
    run_simulate(scenario, tmp_path)
    assert [len(table) for table in tables] == [68, 68, 68, 68, 1] * 4
    gamma, sys_obj, labels = build_matrix(scenario.rates), scenario.sys, scenario.pps_labels
    times = scenario.time_grid.times()
    m0 = [pps_modes(label, sys_obj) for label in labels]
    states = propagate(gamma, m0, equilibrium_modes(sys_obj), times)
    rows = compare_pps(gamma, sys_obj, times, labels)
    for label, table, state in zip(labels, np.concatenate(tables).reshape(4, 273, 8), states):
        np.testing.assert_array_equal(table[:, 0], times)
        np.testing.assert_array_equal(table[:, 1:4], state)
        np.testing.assert_array_equal(table[:, 4:7], rows[label])


# -------------------------------------------------------------------- sweep

def test_sweep_outputs_and_linearity(tmp_path):
    path = run_sweep(default_sweep(), tmp_path)
    header, rows = read_rows(path)
    assert header == [
        "value",
        "a_diff_initial",
        "a_diff_probe",
        "b_absdiff_probe",
        "c_absdiff_probe",
    ]
    values = [float(r["value"]) for r in rows]
    initial = [float(r["a_diff_initial"]) for r in rows]
    # zero scale row is exactly zero
    assert initial[0] == 0.0
    assert float(rows[0]["b_absdiff_probe"]) == 0.0
    # initial-rate difference is proportional to the joint scale
    reference = initial[-1] / values[-1]
    for value, diff in zip(values[1:], initial[1:]):
        assert diff == pytest.approx(value * reference, rel=1e-12)
    # spin-1 excess separates more than spin-2 excess (delta2 < delta1)
    for row in rows[1:]:
        assert float(row["b_absdiff_probe"]) > float(row["c_absdiff_probe"])


def test_sweep_warns_like_the_scalar_path(tmp_path):
    # delta1 = 0.5 breaks positive definiteness; tau = 1 s puts
    # tau * lambda_max outside the initial-rate window
    doc = config_doc(tau=1.0)
    doc["sweep"] = {"parameter": "rates.delta1", "values": [0.0, 0.5]}
    with pytest.warns(NotPositiveDefiniteWarning), pytest.warns(InitialRateWindowWarning):
        run_sweep(parse_sweep(doc), tmp_path)


def test_sweep_does_not_depend_on_the_block_size(tmp_path, monkeypatch):
    """100 values in blocks of 7 (14 blocks and a tail of 2) write the bytes
    of one block, whether the process may use one CPU, so that every
    block's matrices are diagonalized on the calling thread, or two, so
    that a worker thread diagonalizes them ahead of the caller. A sweep
    whose non-positive-definite value (rho1 = 0.001, block 0) and
    largest-eigenvalue value (rho1 = 5, block 1, outside the initial-rate
    window at tau 0.1) fall in different blocks warns once per category,
    with the text of the one-block run."""
    plain = config_doc()
    plain["sweep"] = {"parameter": "delta_scale", "values": np.linspace(0, 1.5, 100).tolist()}
    warned = config_doc()
    warned["sweep"] = {"parameter": "rates.rho1", "values": [0.001] + [0.3] * 10 + [5.0]}
    sweep_matrices, on_caller = run_module._sweep_matrices, set()

    def watched(sweep, values):
        on_caller.add(threading.current_thread() is threading.main_thread())
        return sweep_matrices(sweep, values)

    monkeypatch.setattr(run_module, "_sweep_matrices", watched)
    runs = []
    for block, cpus in ((7, 1), (7, 2), (100, 2)):
        monkeypatch.setattr(run_module, "SWEEP_BLOCK_VALUES", block)
        monkeypatch.setattr(_threads, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"{block}-{cpus}"
        threads = threading.active_count()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            paths = [run_sweep(parse_sweep(plain), out / "plain"), run_sweep(parse_sweep(warned), out)]
        assert threading.active_count() == threads
        # a one-block sweep runs inline: a thread would have nothing to run ahead of
        assert on_caller == {block == 100 or cpus == 1}
        on_caller.clear()
        texts = [(w.category, str(w.message)) for w in caught]
        runs.append(([Path(p).read_bytes() for p in paths], texts))
    assert runs[1:] == runs[:1] * 2
    assert [category for category, _ in runs[0][1]] == [
        NotPositiveDefiniteWarning,
        InitialRateWindowWarning,
    ]


def test_a_threaded_sweep_fails_at_the_block_of_the_inline_run(tmp_path, monkeypatch):
    """Four blocks of 4 values, the third of which holds delta1 = 900: its
    matrices are not positive definite and its states overflow at the
    probe time. On one CPU or two, the run raises FloatingPointError with
    the same text and warns with the same eigenvalues, those of the
    blocks up to the failing one: the fourth block's lower eigenvalue,
    which the worker may have diagonalized ahead, counts in neither run.
    It deletes its file and leaves no thread behind."""
    doc = config_doc()
    values = [0.1] * 8 + [900.0] * 4 + [2000.0] * 4
    doc["sweep"] = {"parameter": "rates.delta1", "values": values, "probe_time": 1.0}
    monkeypatch.setattr(run_module, "SWEEP_BLOCK_VALUES", 4)
    outcomes = []
    for cpus in (1, 2):
        monkeypatch.setattr(_threads, "_usable_cpus", lambda: cpus)
        threads = threading.active_count()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FloatingPointError) as failure:
                run_sweep(parse_sweep(doc), tmp_path / str(cpus))
        assert threading.active_count() == threads
        assert not (tmp_path / str(cpus) / "sweep.csv").exists()
        outcomes.append((str(failure.value), [(w.category, str(w.message)) for w in caught]))
    assert outcomes[0] == outcomes[1]
    message, texts = outcomes[0]
    assert [category for category, _ in texts] == [
        NotPositiveDefiniteWarning,
        InitialRateWindowWarning,
    ]
    assert "-899.6" in message and "-899.6" in texts[0][1]


def test_an_interrupted_sweep_leaves_no_thread_or_file(tmp_path, monkeypatch):
    """A KeyboardInterrupt while the second block is formatted, with the
    worker diagonalizing blocks ahead, deletes the file and joins the
    worker before it reaches the caller."""
    monkeypatch.setattr(run_module, "SWEEP_BLOCK_VALUES", 4)
    monkeypatch.setattr(_threads, "_usable_cpus", lambda: 2)
    csv_text, formatted = run_module._csv_text, []

    def interrupted(template, table):
        formatted.append(len(table))
        if len(formatted) == 2:
            raise KeyboardInterrupt
        return csv_text(template, table)

    monkeypatch.setattr(run_module, "_csv_text", interrupted)
    doc = config_doc()
    doc["sweep"] = {"parameter": "delta_scale", "values": np.linspace(0, 1.5, 40).tolist()}
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(parse_sweep(doc), tmp_path)
    assert threading.active_count() == threads
    assert formatted == [4, 4]
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("probe_time", [0.5, 2.0])
def test_sweep_probe_columns_are_the_simulated_differences(probe_time):
    """The three probe columns are, bit for bit, the 00 - 11 differences
    of ``compare_pps`` at the probe time of a grid from 0, one matrix per
    swept value: a state rounds alike in the sweep's call, which holds one
    time and a stack of matrices, and in a call of two times and one
    matrix."""
    values = tuple(np.linspace(0.0, 1.5, 200).tolist())
    sweep = SweepSpec("delta_scale", values, default_scenario(), probe_time)
    gamma = run_module._sweep_matrices(sweep, values)
    table = run_module._sweep_table(sweep, values, gamma, [math.inf, 0.0])
    labels = (PpsLabel.P00, PpsLabel.P11)
    for row, rates in zip(table, sweep_rates(sweep.base, sweep.parameter, values)):
        gamma = build_matrix(RelaxationRates(*rates.tolist()))
        pair = compare_pps(gamma, sweep.base.sys, [0.0, probe_time], labels)
        a, b, c = (pair[labels[0]][1] - pair[labels[1]][1]).tolist()
        assert row[2:].tolist() == [a, abs(b), abs(c)]


def test_sweep_full_solution_difference_increases(tmp_path):
    path = run_sweep(default_sweep(), tmp_path)
    _, rows = read_rows(path)
    probe = [float(r["a_diff_probe"]) for r in rows]
    assert all(b > a for a, b in zip(probe, probe[1:]))


# ----------------------------------------------------------------- pipeline

def pipeline_doc(**overrides):
    doc = config_doc(
        readout="spectra",
        noise={"snr": "inf", "seed": 11},
        time_grid={"start": 0.0, "end": 2.5, "step": 1.25},
    )
    doc.update(overrides)
    return doc


def test_pipeline_requires_noise_block(tmp_path):
    doc = pipeline_doc()
    del doc["noise"]
    with pytest.raises(ConfigError, match="noise"):
        run_pipeline(parse_scenario(doc), tmp_path)


def test_pipeline_requires_spectra_readout(tmp_path):
    doc = pipeline_doc(readout="coefficients")
    with pytest.raises(ConfigError, match="spectra"):
        run_pipeline(parse_scenario(doc), tmp_path)


@pytest.mark.parametrize(
    "spectrum", [{"points": 10}, {"span": 5}, {"fwhm": math.inf}]
)
def test_pipeline_checks_spectrum_grid_before_any_fit(spectrum, tmp_path, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_doublets called before the grid check")

    monkeypatch.setattr(spectra, "fit_doublets", no_fit)
    with pytest.raises(ConfigError, match="spectrum"):
        run_pipeline(parse_scenario(pipeline_doc(spectrum=spectrum)), tmp_path)


def test_pipeline_noiseless_round_trip(tmp_path):
    path = run_pipeline(parse_scenario(pipeline_doc()), tmp_path)
    header, rows = read_rows(path)
    assert header == [
        "pps",
        "t",
        "nucleus",
        "line0",
        "line1",
        "A_proton",
        "A_fluorine",
        "B",
        "C",
        "residual_norm",
        "converged",
    ]
    first = rows[0]
    assert first["pps"] == "00" and float(first["t"]) == 0.0
    assert float(first["A_proton"]) == pytest.approx(0.5, abs=1e-6)
    assert float(first["A_fluorine"]) == pytest.approx(0.5 / 0.9407, abs=1e-6)
    assert first["converged"] == "1"
    # every noiseless row converges
    assert all(r["converged"] == "1" for r in rows)


def test_pipeline_noiseless_matches_decomposition(tmp_path):
    from ppsrelax.analysis import decompose_rows
    from ppsrelax.relaxation import build_matrix, propagate
    from ppsrelax.spins import PpsLabel, equilibrium_modes, pps_modes

    scenario = parse_scenario(pipeline_doc())
    path = run_pipeline(scenario, tmp_path)
    _, rows = read_rows(path)
    gamma = build_matrix(scenario.rates)
    m_inf = equilibrium_modes(scenario.sys)
    for row in rows:
        label = PpsLabel(row["pps"])
        m = propagate(gamma, pps_modes(label, scenario.sys), m_inf, (float(row["t"]),))[0]
        a, b, c = decompose_rows(m, label)
        assert float(row["A_proton"]) == pytest.approx(a / scenario.sys.gamma2, abs=1e-6)
        assert float(row["B"]) == pytest.approx(b / scenario.sys.gamma1, abs=1e-6)
        assert float(row["C"]) == pytest.approx(c / scenario.sys.gamma2, abs=1e-6)


def test_pipeline_noise_seed_order(tmp_path):
    """Each spectrum of a run draws its noise from default_rng([seed,
    state code, time index, nucleus]), the two equilibrium references
    under the reserved state code; a row rebuilt by hand from one-row
    calls of the public functions, its noise drawn through numpy's own
    ``default_rng``, matches the CSV to every printed digit."""
    from ppsrelax.relaxation import build_matrix, propagate
    from ppsrelax.run import EQUILIBRIUM_STATE_CODE
    from ppsrelax.spins import doublet_pairs, equilibrium_modes, pps_modes

    scenario = parse_scenario(pipeline_doc(noise={"snr": 100.0, "seed": 11}))
    _, rows = read_rows(run_pipeline(scenario, tmp_path))
    sys_obj, spec = scenario.sys, scenario.spectrum
    freqs = spectra.frequency_grid(sys_obj.j_coupling, spec.fwhm, spec.span, spec.points)

    def fit(modes, nucleus, state, index):
        pair = doublet_pairs(modes)[nucleus - 1]
        amps = spectra.doublet_amps(freqs, [pair], sys_obj.j_coupling, spec.fwhm)
        amps = noisy_amps(amps, 100.0, [[11, state, index, nucleus]])
        fits = spectra.fit_doublets(freqs, amps, sys_obj.j_coupling, spec.fwhm)
        assert fits.converged[0]
        return fits.peaks[0, :, 1], fits.residual_norm[0]

    m_inf = equilibrium_modes(sys_obj)
    (eq1, _), (eq2, _) = (fit(m_inf, nucleus, EQUILIBRIUM_STATE_CODE, 0) for nucleus in (1, 2))
    # state 11 (code 3) is the second of two, t = 1.25 s the second of three times
    m0 = [pps_modes(label, sys_obj) for label in scenario.pps_labels]
    states = propagate(build_matrix(scenario.rates), m0, m_inf, scenario.time_grid.times())
    fits = {nucleus: fit(states[1, 1], nucleus, 3, 1) for nucleus in (1, 2)}
    coeffs = spectra.coefficient_rows(fits[1][0], fits[2][0], eq1, eq2, PpsLabel.P11)
    for nucleus, (lines, residual_norm) in fits.items():
        (row,) = [
            r for r in rows if (r["pps"], r["t"], r["nucleus"]) == ("11", "1.25", str(nucleus))
        ]
        expected = (*lines, *coeffs, residual_norm)
        assert list(row.values())[3:] == ["%.12g" % v for v in expected] + ["1"]


def test_pipeline_noise_keys_of_every_spectrum(tmp_path, monkeypatch):
    """The noise keys of a run: the two equilibrium references, then
    (state code, time index, nucleus) label by label, time by time,
    nucleus 1 before 2, as the loop below builds them."""
    from ppsrelax.run import EQUILIBRIUM_STATE_CODE

    seen, fit_noisy_doublets = [], spectra.fit_noisy_doublets
    monkeypatch.setattr(
        spectra,
        "fit_noisy_doublets",
        lambda *args: seen.append(args[-1]) or fit_noisy_doublets(*args),
    )
    run_pipeline(parse_scenario(pipeline_doc(pps_labels=["11", "00", "10"])), tmp_path)
    expected = [(EQUILIBRIUM_STATE_CODE, 0, nucleus) for nucleus in (1, 2)] + [
        (code, index, nucleus) for code in (3, 0, 2) for index in range(3) for nucleus in (1, 2)
    ]
    assert [tuple(key) for key in seen[0].tolist()] == expected


def state_lines(path):
    """The data lines of a pipeline CSV, grouped by their state label."""
    lines = {}
    for line in Path(path).read_text().splitlines():
        if line and not line.startswith(("#", "pps,")):
            lines.setdefault(line.split(",", 1)[0], []).append(line)
    return lines


def test_pipeline_noise_does_not_depend_on_label_order(tmp_path):
    """Permuting or dropping labels leaves every other state's rows
    byte-identical: noise is keyed by state, not by list position."""
    doc = pipeline_doc(noise={"snr": 100.0, "seed": 11}, pps_labels=["00", "01", "10", "11"])
    full = state_lines(run_pipeline(parse_scenario(doc), tmp_path / "full"))
    for order in (["11", "10", "01", "00"], ["10", "00"], ["11"]):
        doc["pps_labels"] = order
        part = state_lines(run_pipeline(parse_scenario(doc), tmp_path / "-".join(order)))
        assert list(part) == order
        for label in order:
            assert part[label] == full[label]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_pipeline_bytes_do_not_depend_on_threads_or_batch_size(tmp_path, monkeypatch, threads):
    """Nor on the rows whose normal equations the solver builds at once."""
    doc = pipeline_doc(noise={"snr": 100.0, "seed": 11}, pps_labels=["00", "01", "10", "11"])
    reference = Path(run_pipeline(parse_scenario(doc), tmp_path / "reference")).read_bytes()
    monkeypatch.setattr(_threads, "_usable_cpus", lambda: threads)
    for batch in (1, 3, 7):
        monkeypatch.setattr(spectra, "BATCH_SAMPLES", batch * 801)
        path = run_pipeline(parse_scenario(doc), tmp_path / f"batch{batch}")
        assert Path(path).read_bytes() == reference
    monkeypatch.setattr(spectra, "BATCH_SAMPLES", 42 * 801)  # the whole run
    for chunk in (2, 5):
        monkeypatch.setattr(spectra, "NORMAL_EQUATION_ROWS", chunk)
        path = run_pipeline(parse_scenario(doc), tmp_path / f"chunk{chunk}")
        assert Path(path).read_bytes() == reference


@pytest.mark.parametrize("points", [801, 1201])
def test_straggler_pool_holds_less_than_a_batch_and_a_handoff(monkeypatch, points):
    """The straggler pool is finished whenever it reaches a batch's worth
    of spectra, so no pooled fit holds BATCH_SAMPLES samples plus a
    hand-off, however long the run; a batch of fewer than 4 _POOL_ROWS
    spectra (here on the 1201-point grid) pools nothing. The doublets have
    a zero line, as a pseudo-pure spectrum has at t = 0: its fit straggles
    on the noise, where that of a doublet with two lines above it converges
    within two steps and no fit thread fills a pool."""
    fit_pool, pooled = spectra._fit_pool, []

    def counted(setup, pool, fitted):
        pooled.append(sum(len(amps) for _, amps in pool))
        return fit_pool(setup, pool, fitted)

    monkeypatch.setattr(_threads, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(spectra, "BATCH_SAMPLES", 32 * 801)
    monkeypatch.setattr(spectra, "_fit_pool", counted)
    scenario = parse_scenario(
        pipeline_doc(noise={"snr": 100.0, "seed": 11}, spectrum={"points": points})
    )
    spectrum = scenario.spectrum
    freqs = spectra.frequency_grid(scenario.sys.j_coupling, spectrum.fwhm, spectrum.span, points)
    keys = np.array([(0, index, 1) for index in range(400)])
    pairs, noise = np.tile([1.0, 0.0], (len(keys), 1)), scenario.noise
    spectra.fit_noisy_doublets(
        freqs, pairs, scenario.sys.j_coupling, spectrum.fwhm, noise.snr, noise.seed, keys
    )
    if spectra.BATCH_SAMPLES // points >= 4 * spectra._POOL_ROWS:
        assert len(pooled) > 1  # a fit thread finished a full pool
        assert max(pooled) * points < spectra.BATCH_SAMPLES + spectra._POOL_ROWS * points
    else:
        assert pooled == [0]


def test_map_threads_keeps_item_order_and_runs_the_caller(monkeypatch):
    """More threads than CPUs and a short switch interval: every item runs
    exactly once and its result lands in its own slot, whichever thread
    takes it, and the calling thread takes items too."""
    import threading
    import time

    monkeypatch.setattr(_threads, "_usable_cpus", lambda: 8)
    seen = []  # holds the thread objects, so no two of them share an identity

    def task(item):
        seen.append((item, threading.current_thread()))
        time.sleep(1e-4)  # every thread gets to take items
        return item * item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = _threads._map_threads(task, range(500))
    finally:
        sys.setswitchinterval(interval)
    assert results == [item * item for item in range(500)]
    assert sorted(item for item, _ in seen) == list(range(500))
    assert len({thread for _, thread in seen}) == 8
    assert any(thread is threading.current_thread() for _, thread in seen)


def test_ahead_keeps_order_and_runs_at_most_two_results_ahead(monkeypatch):
    """Under a short switch interval the results come in item order, every
    item runs on the worker, and the worker starts an item only while
    fewer than AHEAD_RESULTS finished results wait: when it starts item i,
    the caller has taken at least i - AHEAD_RESULTS results. A caller
    that pauses lets it run that far ahead."""
    monkeypatch.setattr(_threads, "_usable_cpus", lambda: 2)
    taken, leads, runners = [0], [], set()

    def task(item):
        leads.append(item - taken[0])
        runners.add(threading.current_thread())
        return item * item

    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _threads._ahead(task, range(300)) as results:
            for value in results:
                got.append(value)
                if len(got) % 7 == 0:
                    time.sleep(1e-3)
                taken[0] += 1
    finally:
        sys.setswitchinterval(interval)
    assert got == [item * item for item in range(300)]
    assert len(runners) == 1 and threading.current_thread() not in runners
    assert max(leads) == _threads.AHEAD_RESULTS


@pytest.mark.parametrize("cpus", [1, 2])
def test_ahead_raises_a_failed_item_in_its_place(monkeypatch, cpus):
    """An item's exception reaches the caller where its result would, and
    no later item starts, inline or on the worker."""
    monkeypatch.setattr(_threads, "_usable_cpus", lambda: cpus)
    started, got = [], []

    def task(item):
        started.append(item)
        if item == 3:
            raise ZeroDivisionError("item 3")
        return item

    threads = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="item 3"):
        with _threads._ahead(task, range(10)) as results:
            got.extend(results)
    assert threading.active_count() == threads
    assert got == [0, 1, 2] and started == [0, 1, 2, 3]


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
def test_ahead_interrupted_while_waiting_joins_its_worker(monkeypatch):
    """A SIGINT that reaches the calling thread while it waits for the
    second result raises KeyboardInterrupt there; the worker finishes the
    item it holds, starts no other, and is joined."""
    monkeypatch.setattr(_threads, "_usable_cpus", lambda: 2)
    caller, started, took = threading.get_ident(), [], threading.Event()

    def task(item):
        started.append(item)
        if item == 1:
            took.wait(10)
            time.sleep(0.05)  # the caller goes on to wait for this result
            signal.pthread_kill(caller, signal.SIGINT)
            time.sleep(0.05)
        return item

    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        with _threads._ahead(task, range(10)) as results:
            for _ in results:
                took.set()
    assert threading.active_count() == threads
    assert started == [0, 1]


def test_run_uses_no_private_name_of_spectra():
    """The fit's batches, threads and straggler hand-off live behind the
    public functions of ``spectra``: ``run.py`` reads no ``_`` name of it,
    neither as ``spectra._name`` nor by ``from .spectra import _name``."""
    tree = ast.parse(Path(run_module.__file__).read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "spectra":
                used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("spectra"):
            used.update(alias.name for alias in node.names)
    assert "fit_noisy_doublets" in used
    assert sorted(name for name in used if name.startswith("_")) == []


def test_pipeline_deterministic_with_noise(tmp_path):
    doc = pipeline_doc(noise={"snr": 100.0, "seed": 11})
    p1 = run_pipeline(parse_scenario(doc), tmp_path / "a")
    p2 = run_pipeline(parse_scenario(doc), tmp_path / "b")
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_pipeline_seed_override_changes_output(tmp_path):
    doc = pipeline_doc(noise={"snr": 100.0, "seed": 11})
    p1 = run_pipeline(parse_scenario(doc), tmp_path / "a")
    p2 = run_pipeline(parse_scenario(doc), tmp_path / "b", seed_override=99)
    assert Path(p1).read_bytes() != Path(p2).read_bytes()


# ---------------------------------------------------------------- CSV text

#: The one-row templates of the row-by-row writer: the state label as a
#: ``%s`` field, one ``%`` call per row.
ROW_BY_ROW = {
    "simulate": "%s" + ",%.12g" * 8 + "\n",
    "sweep": ",".join(["%.12g"] * 5) + "\n",
    "pipeline": "%s,%.12g,%d" + ",%.12g" * 7 + ",%d\n",
}


def grid_of(samples):
    """A 0.25 s time grid of ``samples`` times (one time: step > end)."""
    end = (samples - 1) * 0.25 if samples > 1 else 0.125
    return {"start": 0.0, "end": end, "step": 0.25}


@pytest.mark.parametrize("command", ["simulate", "sweep", "pipeline"])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
def test_csv_blocks_match_row_by_row_formatting(command, n, tmp_path, monkeypatch):
    """Block-formatted text, tail block included, equals formatting each row
    alone. ``n`` is the number of times of each state (simulate, pipeline:
    ``2 n`` rows, one per nucleus) or of swept values (sweep)."""
    tables = []

    def recording(template, table):
        tables.append(table.copy())
        return _csv_text(template, table)

    monkeypatch.setattr("ppsrelax.run._csv_text", recording)
    prefixes = [("00",), ("11",)]
    if command == "sweep":
        doc = config_doc()
        doc["sweep"] = {"parameter": "delta_scale", "values": np.linspace(0, 1, n).tolist()}
        path = run_sweep(parse_sweep(doc), tmp_path)
        prefixes = [()]
    elif command == "simulate":
        path = run_simulate(parse_scenario(config_doc(time_grid=grid_of(n))), tmp_path)[0]
    else:
        path = run_pipeline(parse_scenario(pipeline_doc(time_grid=grid_of(n))), tmp_path)
    rows = 2 * n if command == "pipeline" else n
    assert [len(table) for table in tables] == [rows] * len(prefixes)
    # the row-by-row writer formatted numpy rows for sweep, lists otherwise
    reference = [
        ROW_BY_ROW[command] % (*prefix, *values)
        for prefix, table in zip(prefixes, tables)
        for values in (table if command == "sweep" else table.tolist())
    ]
    data = Path(path).read_text().splitlines(keepends=True)[4:]  # after 3 # lines, header
    assert data == reference


#: Four states over 5 001 times: a simulate CSV of 20 004 rows.
LONG_SIMULATE = config_doc(
    pps_labels=["00", "01", "10", "11"], time_grid={"end": 5.0, "step": 0.001}
)


def traced_peak(task):
    """The result of ``task()`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return task(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_never_holds_its_text(tmp_path):
    """The traced peak of a simulate run stays below the size of the CSV
    it writes: rows are formatted and written a block at a time."""
    path, peak = traced_peak(lambda: run_simulate(parse_scenario(LONG_SIMULATE), tmp_path)[0])
    assert peak < Path(path).stat().st_size


def test_simulate_memory_does_not_grow_with_the_grid(tmp_path, monkeypatch):
    """The traced peak of a two-state simulate run on 50 001 times stays
    within 1 MB of the peak on 5 001 times: states are propagated and
    decomposed one block of times at a time. The row text is left out, to
    keep the test short (the test above bounds it)."""
    monkeypatch.setattr(run_module, "_csv_text", lambda template, table: ())
    short, long = (
        traced_peak(
            lambda: run_simulate(
                parse_scenario(config_doc(time_grid={"end": end, "step": 0.001})), tmp_path
            )
        )[1]
        for end in (5.0, 50.0)
    )
    assert long < short + 2**20


def test_sweep_holds_one_block_at_a_time(tmp_path):
    """The traced peak of a 40 000-value sweep stays below twice the size
    of the CSV it writes: matrices, states and rows are made one block of
    values at a time. What is left grows with the values because the
    output repeats them: the ``# scenario:`` line lists every one."""
    values = tuple(np.linspace(0.0, 1.5, 40_000).tolist())
    sweep = SweepSpec("delta_scale", values, default_scenario())
    path, peak = traced_peak(lambda: run_sweep(sweep, tmp_path))
    assert peak < 2 * Path(path).stat().st_size


def test_sweep_check_holds_one_block_at_a_time():
    """The traced peak of reading a decoded 40 000-value sweep stays below
    twice the size of the values tuple it keeps: the config check tests
    the rates of one block of values at a time."""
    doc = config_doc()
    doc["sweep"] = {"parameter": "delta_scale", "values": np.linspace(0, 1.5, 40_000).tolist()}
    sweep, peak = traced_peak(lambda: parse_sweep(doc))
    assert peak < 2 * sys.getsizeof(sweep.values)


def test_sweep_check_names_the_value_of_a_later_block(monkeypatch):
    monkeypatch.setattr("ppsrelax.scenario.SWEEP_BLOCK_VALUES", 2)
    doc = config_doc()
    doc["sweep"] = {"parameter": "rates.rho1", "values": [0.3, 0.2, 0.1, -0.1, 0.4]}
    with pytest.raises(ConfigError, match=r"sweep value -0\.1: self-relaxation rate rho1"):
        parse_sweep(doc)


def test_report_never_holds_the_text_of_a_csv(tmp_path):
    """The traced peak of a report stays below the size of the CSV it
    reads: the rows are read straight into arrays."""
    path = run_simulate(parse_scenario(LONG_SIMULATE), tmp_path)[0]
    text = io.StringIO()
    _, peak = traced_peak(lambda: run_report([path], text))
    assert "00 slower than 11 (A): PASS" in text.getvalue()
    assert peak < Path(path).stat().st_size


def test_first_appearance_holds_no_copy_of_the_labels():
    """Finding the states of a label column traces less memory than the
    column itself: no sorted copy of it is made."""
    from ppsrelax.report import _first_appearance

    labels = np.repeat(np.array(["11", "00", "10"], dtype="U3"), 100_000)
    found, peak = traced_peak(lambda: _first_appearance(labels))
    assert found == ["11", "00", "10"]
    assert peak < labels.nbytes


# ------------------------------------------------------------------- report

def test_report_simulate_verdicts(tmp_path, capsys):
    path = run_simulate(parse_scenario(config_doc()), tmp_path)[0]
    run_report([path])
    out = capsys.readouterr().out
    assert "00 slower than 11 (A): PASS" in out
    assert "rate-matrix eigenvalues" in out
    assert "rho2" in out  # convention note present


def test_report_no_interference_indistinguishable(tmp_path, capsys):
    doc = config_doc()
    doc["rates"]["delta1"] = 0.0
    doc["rates"]["delta2"] = 0.0
    path = run_simulate(parse_scenario(doc), tmp_path)[0]
    run_report([path])
    assert "indistinguishable" in capsys.readouterr().out


def test_report_sweep(tmp_path, capsys):
    """A sweep report is a bounded summary: the first and last rows and
    the rows of the extreme A-diff(probe), then the verdict."""
    from dataclasses import replace

    values = tuple(np.linspace(0.0, 1.0, 500).tolist())
    run_report([run_sweep(replace(default_sweep(), values=values), tmp_path / "up")])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "swept delta_scale over 500 values"
    assert lines[2].startswith("  first, min A-diff(probe): value=0 ")
    assert lines[3].startswith("  last, max A-diff(probe): value=1 ")
    assert lines[4:] == ["  A-difference strictly increasing across sweep: PASS", ""]

    values = (0.5, 1.0, 0.0, 0.25)
    run_report([run_sweep(replace(default_sweep(), values=values), tmp_path / "mixed")])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": value=")[0] for line in lines[2:6]] == [
        "  first",
        "  max A-diff(probe)",
        "  min A-diff(probe)",
        "  last",
    ]
    assert lines[6] == "  A-difference strictly increasing across sweep: FAIL"


def test_report_pipeline(tmp_path, capsys):
    path = run_pipeline(parse_scenario(pipeline_doc()), tmp_path)
    run_report([path])
    out = capsys.readouterr().out
    assert "converged fits: 12/12" in out
    assert "pps 00 t=0:" in out
    # a 201-time run still prints the first and last time of each state only
    doc = pipeline_doc(time_grid={"start": 0.0, "end": 2.5, "step": 0.0125})
    run_report([run_pipeline(parse_scenario(doc), tmp_path / "long")])
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert len(lines) <= 4 + 2 * len(doc["pps_labels"])
    assert "converged fits: 804/804" in lines[1]
    assert [line.split(":")[0] for line in lines[3:-1]] == [
        "  pps 00 t=0", "  pps 00 t=2.5", "  pps 11 t=0", "  pps 11 t=2.5"
    ]
    assert lines[-1] == "\n"


def test_report_rejects_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# ppsrelax simulate v1\npps,t\n")
    with pytest.raises(SchemaMismatch, match="no data rows"):
        run_report([str(path)])


def test_report_rejects_foreign_csv(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(SchemaMismatch, match="missing header"):
        run_report([str(path)])


def test_report_names_missing_column(tmp_path):
    path = run_simulate(parse_scenario(config_doc()), tmp_path)[0]
    text = Path(path).read_text().replace("A_minus_A0", "A_shifted").replace(",A,", ",Z,")
    broken = tmp_path / "broken.csv"
    broken.write_text(text)
    with pytest.raises(SchemaMismatch, match="'A'"):
        run_report([str(broken)])


def test_default_scenario_is_valid():
    scenario = default_scenario()
    assert scenario.rates.delta2 == pytest.approx(scenario.rates.delta1 / 3.0)
    assert scenario.sys.k == 0.5
