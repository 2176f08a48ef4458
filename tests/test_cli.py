import errno
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ppsrelax
from ppsrelax.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from ppsrelax.relaxation import NotPositiveDefiniteWarning
from ppsrelax.scenario import default_pipeline_scenario, scenario_to_dict


def write_config(tmp_path, **overrides):
    doc = {
        "schema_version": 1,
        "id": "cli-test",
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
        "time_grid": {"start": 0.0, "end": 1.0, "step": 0.25},
        "tau": 0.1,
        "readout": "coefficients",
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(command):
    """``python -m ppsrelax`` (``cli.main``) on ``command`` in a fresh
    process, so that its warnings reach stderr as a user sees them."""
    env = {**os.environ, "PYTHONPATH": str(Path(ppsrelax.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "ppsrelax", *command], capture_output=True, text=True, env=env
    )


def test_import_leaves_hashlib_and_numpy_random_unloaded():
    """Importing the CLI loads neither hashlib nor numpy.random beyond what
    ``import numpy`` loads (numpy 1.x imports numpy.random, and with it
    hashlib, itself): only a config without an id takes a digest, and
    only noise draws random numbers."""
    env = {**os.environ, "PYTHONPATH": str(Path(ppsrelax.__file__).parents[1])}
    probe = (
        "import sys, numpy; before = set(sys.modules); import ppsrelax.cli; "
        "print(sorted({'hashlib', 'numpy.random'} & (sys.modules.keys() - before)))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert result.stdout == "[]\n", result.stderr


@pytest.mark.parametrize(
    "command, loaded",
    [
        (["simulate"], []),
        (["sweep"], []),
        (["simulate", "--plot"], ["svg"]),
        (["pipeline"], ["spectra"]),
        (["report"], ["report"]),
    ],
    ids=["simulate", "sweep", "simulate-plot", "pipeline", "report"],
)
def test_each_command_loads_only_its_layers(tmp_path, command, loaded):
    """``cli.main`` in a fresh interpreter loads the spectral chain, the
    report and the SVG writer only for the command that runs each one:
    simulate and sweep load none of them."""
    if command == ["report"]:
        main(["simulate", "--out", str(tmp_path), "--quiet"])
        command = ["report", str(tmp_path / "simulate.csv")]
    else:
        command = [*command, "--out", str(tmp_path), "--quiet"]
    env = {**os.environ, "PYTHONPATH": str(Path(ppsrelax.__file__).parents[1])}
    probe = (
        f"import sys; from ppsrelax import cli; code = cli.main({command!r}); "
        "print(code, [m for m in ('report', 'spectra', 'svg') if 'ppsrelax.' + m in sys.modules])"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert result.stdout.splitlines()[-1] == f"{EXIT_OK} {loaded}", result.stderr


def test_lazy_public_api():
    """Every name ``ppsrelax`` exports resolves on first use to the object
    of its home layer, ``dir`` lists it, an unknown name raises
    AttributeError, and the failures the CLI catches are the classes the
    spectral chain raises."""
    from ppsrelax import cli, spectra

    exported = {
        "ConfigError", "Deviation", "GridTooCoarse", "InconsistentEquilibrium",
        "InitialRateWindowWarning", "NotConverged", "NotPositiveDefiniteWarning",
        "PpsLabel", "RelaxationMatrix", "RelaxationRates", "SchemaMismatch", "Scenario",
        "SpinSystem", "SweepSpec", "build_matrix", "closed_form_auto", "closed_form_cross",
        "compare_pps", "default_pipeline_scenario", "default_scenario", "default_sweep",
        "equilibrium_modes", "load_scenario", "load_sweep", "pps_modes", "propagate",
        "run_pipeline", "run_report", "run_simulate", "run_sweep",
    }  # fmt: skip
    assert set(ppsrelax.__all__) == exported
    for name in ppsrelax.__all__:
        value = getattr(ppsrelax, name)
        assert value.__module__.startswith("ppsrelax.")
        assert getattr(sys.modules[value.__module__], name) is value
        assert name in dir(ppsrelax)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ppsrelax.no_such_name
    assert cli.NotConverged is spectra.NotConverged is ppsrelax.NotConverged
    assert cli.InconsistentEquilibrium is spectra.InconsistentEquilibrium
    assert {"NotConverged", "InconsistentEquilibrium"} <= set(spectra.__all__)


def test_simulate_subcommand(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["simulate", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "simulate.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_simulate_quiet(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(
        ["simulate", "--config", config, "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""


def test_simulate_plot_flag(tmp_path):
    config = write_config(tmp_path)
    main(["simulate", "--config", config, "--out", str(tmp_path / "out"), "--plot"])
    assert (tmp_path / "out" / "simulate_A.svg").exists()


def test_simulate_defaults_without_config(tmp_path):
    code = main(["simulate", "--out", str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "simulate.csv").exists()


def test_config_error_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, readout="bogus")
    code = main(["simulate", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, content",
    [
        ("simulate", b"\xff\xfe" + json.dumps({"schema_version": 1}).encode("utf-16-le")),
        ("simulate", b'{"schema_version": 1, "tau": 1' + b"0" * 5000 + b"}"),
        ("simulate", b"[" * 100_000 + b"]" * 100_000),
        ("simulate", b"[]"),
        ("simulate", b"{}"),
        ("sweep", json.dumps(scenario_to_dict(default_pipeline_scenario())).encode()),
    ],
    ids=[
        "not-utf8", "too-many-digits", "nested-too-deeply", "root-not-object",
        "no-schema-version", "sweep-without-sweep-block",
    ],
)
def test_unreadable_config_is_config_error(tmp_path, capsys, command, content):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    code = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("ppsrelax: config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unknown_key_exit_code(tmp_path):
    config = write_config(tmp_path, surprise=1)
    assert main(["simulate", "--config", config]) == EXIT_CONFIG


def test_io_error_exit_code(tmp_path, capsys):
    config = write_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    code = main(["simulate", "--config", config, "--out", str(blocker)])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_sweep_subcommand(tmp_path):
    code = main(["sweep", "--out", str(tmp_path), "--quiet"])
    assert code == EXIT_OK
    assert (tmp_path / "sweep.csv").exists()


def test_pipeline_subcommand_with_seed(tmp_path):
    config = write_config(
        tmp_path,
        readout="spectra",
        noise={"snr": 100.0, "seed": 3},
        time_grid={"start": 0.0, "end": 1.0, "step": 0.5},
    )
    out = tmp_path / "out"
    code = main(["pipeline", "--config", config, "--out", str(out), "--seed", "77", "--quiet"])
    assert code == EXIT_OK
    text = (out / "pipeline.csv").read_text()
    assert '"seed":77' in text


def test_pipeline_missing_noise_is_config_error(tmp_path):
    config = write_config(tmp_path, readout="spectra")
    assert main(["pipeline", "--config", config, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_pipeline_defaults_without_config(tmp_path):
    code = main(["pipeline", "--out", str(tmp_path), "--quiet"])
    assert code == EXIT_OK
    assert (tmp_path / "pipeline.csv").exists()


def test_report_subcommand(tmp_path, capsys):
    config = write_config(tmp_path)
    main(["simulate", "--config", config, "--out", str(tmp_path / "out"), "--quiet"])
    code = main(["report", str(tmp_path / "out" / "simulate.csv")])
    assert code == EXIT_OK
    assert "eigenvalues" in capsys.readouterr().out


def test_report_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    code = main(["report", str(bad)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def edit_first_row(edit):
    """Edit of a CSV's bytes: ``edit`` applied to the cells of its first data row."""

    def apply(data):
        lines = data.split(b"\n")
        lines[4] = b",".join(edit(lines[4].split(b",")))  # after 3 # lines, header
        return b"\n".join(lines)

    return apply


def scenario_line(text):
    """Edit of a CSV's bytes: its scenario line set to ``text``."""

    def apply(data):
        lines = data.split(b"\n")
        lines[2] = b"# scenario: " + text  # after the kind and units lines
        return b"\n".join(lines)

    return apply


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda data: data.replace(b"# scenario: {", b"# scenario: {,"), id="json"),
        pytest.param(scenario_line(b'{"id": ' + b"9" * 5000 + b"}"), id="too-many-digits"),
        pytest.param(scenario_line(b"[" * 100_000 + b"]" * 100_000), id="nested-too-deeply"),
        pytest.param(scenario_line(b"[1]"), id="scenario-not-object"),
        pytest.param(lambda data: data.replace(b'"k":0.5', b'"k":"x"'), id="scenario"),
        pytest.param(edit_first_row(lambda cells: [*cells[:5], b"x", *cells[6:]]), id="cell"),
        pytest.param(edit_first_row(lambda cells: cells[:3]), id="short-row"),
        pytest.param(edit_first_row(lambda cells: [*cells, b"1"]), id="long-row"),
        pytest.param(
            edit_first_row(lambda cells: [*cells[:2], b"x", *cells[3:]]), id="unread-cell"
        ),
        pytest.param(lambda data: data.replace(b"pps,t,c1,", b"pps,t,t,"), id="duplicate-column"),
        pytest.param(edit_first_row(lambda cells: [b"000", *cells[1:]]), id="bad-label"),
        pytest.param(lambda data: data + b"\xff\xfe\n", id="not-utf8"),
    ],
)
def test_report_malformed_csv_is_schema_error(corrupt, tmp_path, capsys):
    main(["simulate", "--out", str(tmp_path), "--quiet"])
    path = tmp_path / "simulate.csv"
    path.write_bytes(corrupt(path.read_bytes()))
    code = main(["report", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert f"config error: {path}: " in err and err.count("\n") == 1
    assert "usecols" not in err


def test_report_of_another_kind_has_no_summary(tmp_path, capsys):
    path = tmp_path / "other.csv"
    path.write_text('# ppsrelax other v1\n# scenario: {"id": "x"}\nt,c1\n0,1\n')
    assert main(["report", str(path)]) == EXIT_OK
    assert "(no summary implemented for kind 'other')" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["sweep", "pipeline"])
def test_benchmark_entry_points(command, tmp_path):
    """What perfbench's child process does before it times a run: import
    ``cli`` and ``scenario`` from the package and load the config through
    ``scenario.load_sweep`` or ``scenario.load_scenario``; then the run."""
    from ppsrelax import cli, scenario

    if command == "sweep":
        config = write_config(tmp_path, sweep={"parameter": "delta_scale", "values": [0.0, 1.0]})
        assert scenario.load_sweep(config).values == (0.0, 1.0)
    else:
        config = write_config(tmp_path, readout="spectra", noise={"snr": 100.0, "seed": 3})
        assert scenario.load_scenario(config).noise.seed == 3
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out), "--quiet"]) == EXIT_OK
    assert (out / f"{command}.csv").is_file()


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    from ppsrelax import cli

    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli.run, "run_simulate", explode)
    config = write_config(tmp_path)
    code = main(["simulate", "--config", config, "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_failure_in_a_threaded_fit_batch_is_numerical_failure(tmp_path, capsys, monkeypatch):
    """A LinAlgError in the second fit batch, which a worker thread runs,
    ends the pipeline with exit 2: no traceback and no thread left over."""
    import threading

    from ppsrelax import _threads, spectra

    add_noise = spectra._add_noise
    # spectrum 3 opens the second batch of three: state 00, time 0, nucleus 2
    (opening,) = spectra._keyed_seed_words(11, np.array([[0, 0, 2]])).tolist()

    def second_batch_fails(amps, snr, words):
        if words[0].tolist() == opening:
            raise np.linalg.LinAlgError("Singular matrix in batch 2")
        return add_noise(amps, snr, words)

    monkeypatch.setattr(_threads, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(spectra, "BATCH_SAMPLES", 3 * 801)
    monkeypatch.setattr(spectra, "_add_noise", second_batch_fails)
    config = write_config(tmp_path, readout="spectra", noise={"snr": 100.0, "seed": 11})
    threads = threading.active_count()
    code = main(["pipeline", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == "ppsrelax: numerical failure: Singular matrix in batch 2\n"
    assert threading.active_count() == threads
    assert not (tmp_path / "out" / "pipeline.csv").exists()


def test_failure_in_the_straggler_pool_is_numerical_failure(tmp_path, capsys, monkeypatch):
    """A LinAlgError in the pool that finishes the last straggler fits on
    the calling thread, after the fit threads, also ends the pipeline with
    exit 2, no traceback and no thread left over."""
    import threading

    from ppsrelax import _threads, spectra

    map_threads, solve_rows = _threads._map_threads, spectra._solve_rows
    failed_on = []

    def threads_done(task, items):
        results = map_threads(task, items)
        failed_on.append(None)
        return results

    def pool_fails(a, b):
        if failed_on:
            failed_on[0] = threading.current_thread()
            raise np.linalg.LinAlgError("Singular matrix in the pool")
        return solve_rows(a, b)

    # 38 spectra in batches of 32 and 6: at most 8 + 6 stragglers, fewer
    # than a batch, so the pool is left to the calling thread
    monkeypatch.setattr(_threads, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(spectra, "BATCH_SAMPLES", 32 * 801)
    monkeypatch.setattr(_threads, "_map_threads", threads_done)
    monkeypatch.setattr(spectra, "_solve_rows", pool_fails)
    config = write_config(
        tmp_path,
        readout="spectra",
        noise={"snr": 100.0, "seed": 11},
        time_grid={"start": 0.0, "end": 2.0, "step": 0.25},
    )
    threads = threading.active_count()
    code = main(["pipeline", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == "ppsrelax: numerical failure: Singular matrix in the pool\n"
    assert failed_on == [threading.current_thread()]
    assert threading.active_count() == threads
    assert not (tmp_path / "out" / "pipeline.csv").exists()


def write_overflowing_config(tmp_path):
    # sigma12 far above the self rates: one eigenvalue is negative and its
    # mode overflows long before 2000 s (near 1 400 s)
    return write_config(
        tmp_path,
        rates={
            "rho1": 0.003125,
            "rho2": 0.0033,
            "rho12": 0.0033,
            "sigma12": 0.5,
            "delta1": 0.15,
            "delta2": 0.05,
        },
        time_grid={"start": 0.0, "end": 2000.0, "step": 1.0},
    )


def test_overflow_is_numerical_failure(tmp_path, capsys):
    config = write_overflowing_config(tmp_path)
    with pytest.warns(NotPositiveDefiniteWarning):
        code = main(["simulate", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "out" / "simulate.csv").exists()


def watch_csv_text(monkeypatch, fail_after=None):
    """Simulate in blocks of 64 times; the returned list counts the rows of
    each block simulate formats, and the block after ``fail_after`` of
    them raises a full disk's OSError."""
    from ppsrelax import run

    monkeypatch.setattr(run, "SIMULATE_BLOCK_TIMES", 64)
    csv_text, rows = run._csv_text, []

    def watched(template, table):
        if len(rows) == fail_after:
            raise OSError(errno.ENOSPC, "No space left on device")
        rows.append(len(table))
        return csv_text(template, table)

    monkeypatch.setattr(run, "_csv_text", watched)
    return rows


def test_overflow_after_written_rows_leaves_no_csv(tmp_path, capsys, monkeypatch):
    """With small blocks the overflow comes after rows were written: the
    partial CSV is deleted and the run still exits 2."""
    rows = watch_csv_text(monkeypatch)
    config = write_overflowing_config(tmp_path)
    with pytest.warns(NotPositiveDefiniteWarning):
        code = main(["simulate", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    assert sum(rows) > 1000
    assert not (tmp_path / "out" / "simulate.csv").exists()


def test_sweep_overflow_after_written_rows_warns_first(tmp_path, capsys, monkeypatch):
    """A sweep of 3 000 values in blocks of 1 000 whose last block holds
    the overflowing delta1 = 900: after two blocks of rows, both warnings
    reach stderr before the failure line, once each, the run exits 2 and
    it leaves no CSV."""
    from ppsrelax import run

    monkeypatch.setattr(run, "SWEEP_BLOCK_VALUES", 1000)
    csv_text, rows = run._csv_text, []

    def watched(template, table):
        rows.append(len(table))
        return csv_text(template, table)

    monkeypatch.setattr(run, "_csv_text", watched)
    values = [0.0] * 2000 + [0.1] * 500 + [900.0] * 500
    sweep = {"parameter": "rates.delta1", "values": values, "probe_time": 1}
    config = write_config(tmp_path, sweep=sweep)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, category, *_: print(
            f"{category.__name__}: {message}", file=sys.stderr
        )
        code = main(["sweep", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert rows == [1000, 1000]
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == [
        "NotPositiveDefiniteWarning",
        "InitialRateWindowWarning",
        "ppsrelax",
    ]
    assert err[0].endswith("(min eigenvalue -899.679 1/s)")
    assert "numerical failure" in err[2]
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_failed_write_leaves_no_csv(tmp_path, capsys, monkeypatch):
    """A row source that fails after a few blocks, as on a full disk,
    exits 3 and leaves no partial CSV."""
    rows = watch_csv_text(monkeypatch, fail_after=3)
    config = write_config(tmp_path, time_grid={"start": 0.0, "end": 1.0, "step": 0.001})
    code = main(["simulate", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_IO
    assert "No space left on device" in capsys.readouterr().err
    assert rows == [64] * 3
    assert not (tmp_path / "out" / "simulate.csv").exists()


def test_inconsistent_equilibrium_is_numerical_failure(tmp_path, capsys):
    # at snr 5 the noisy equilibrium doublet fails the symmetry check
    config = write_config(
        tmp_path,
        readout="spectra",
        noise={"snr": 5.0, "seed": 3},
        time_grid={"start": 0.0, "end": 1.0, "step": 0.5},
    )
    code = main(["pipeline", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert "equilibrium doublet asymmetry" in capsys.readouterr().err


def test_non_finite_spectrum_is_numerical_failure(tmp_path, capsys):
    """An snr of 5e-324 makes the noise sd infinite: the equilibrium fits
    must fail, not pass as converged with NaN residuals, and the message
    says how far the fit got and what its residual was."""
    config = write_config(tmp_path, readout="spectra", noise={"snr": 5e-324, "seed": 1})
    code = main(["pipeline", "--config", config, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert err == (
        "ppsrelax: numerical failure: equilibrium fit of nucleus 1: "
        "not converged after 11 iterations, residual norm nan\n"
    )
    assert not (tmp_path / "out" / "pipeline.csv").exists()


def test_overflowing_pipeline_warns_only_of_its_amplitude(tmp_path):
    """At k = 1e160 the fit's Gram products would overflow, so every state
    spectrum is fitted scaled down by a power of two. The run exits 0 with
    every row converged; its stderr holds the unphysical-k warning and no
    numpy warning."""
    config = write_config(
        tmp_path,
        system={"k": 1e160},
        readout="spectra",
        noise={"snr": 100.0, "seed": 1},
        time_grid={"start": 0.0, "end": 20.0, "step": 0.25},
    )
    result = run_cli(["pipeline", "--quiet", "--config", config, "--out", str(tmp_path / "out")])
    assert result.returncode == EXIT_OK
    shown = [line for line in result.stderr.splitlines() if "Warning: " in line]
    assert len(shown) == 1 and "UserWarning: k=1e+160" in shown[0]
    rows = (tmp_path / "out" / "pipeline.csv").read_text().splitlines()[4:]
    assert rows and all(row.endswith(",1") for row in rows)


def test_pipeline_whose_fits_fail_warns_and_exits_0(tmp_path):
    """At k = 1e308 the t = 0 line integrals overflow to inf, so those 4 of
    the 12 state spectra fail their fits. Their rows record it and the run
    exits 0, with one warning at the CSV that counts them."""
    config = write_config(
        tmp_path,
        system={"k": 1e308},
        readout="spectra",
        noise={"snr": 100.0, "seed": 1},
        # by t = 5 s the others have decayed far enough to extract without overflow
        time_grid={"start": 0.0, "end": 10.0, "step": 5.0},
    )
    out = tmp_path / "out"
    result = run_cli(["pipeline", "--quiet", "--config", config, "--out", str(out)])
    assert result.returncode == EXIT_OK
    assert result.stderr.splitlines() == [
        f"{config}:0: UserWarning: k=1e+308 exceeds min(gamma1, gamma2)=0.9407; "
        "state amplitude is unphysical",
        f"{out / 'pipeline.csv'}:0: UserWarning: 4 of 12 state spectra did not converge; "
        "their rows read converged 0",
    ]
    rows = (out / "pipeline.csv").read_text().splitlines()[4:]
    assert sum(row.endswith(",0") for row in rows) == 4


def test_pipeline_near_float_max_extracts_without_overflow(tmp_path):
    """The k = 1e308 run above on the 0.25 s grid: rows that converge
    should read no infinite coefficient (NaN marks a row whose partner
    failed), and stderr no numpy warning."""
    config = write_config(
        tmp_path,
        system={"k": 1e308},
        readout="spectra",
        noise={"snr": 100.0, "seed": 1},
    )
    out = tmp_path / "out"
    result = run_cli(["pipeline", "--quiet", "--config", config, "--out", str(out)])
    assert result.returncode == EXIT_OK
    assert "RuntimeWarning" not in result.stderr
    rows = [row.split(",") for row in (out / "pipeline.csv").read_text().splitlines()[4:]]
    assert not any(math.isinf(float(cell)) for row in rows if row[-1] == "1" for cell in row[3:-1])


def test_config_warning_is_shown_at_the_config_file(tmp_path):
    """The unphysical-k warning of a config-built system names the config
    file, not a package source line, and echoes no source line."""
    config = write_config(tmp_path, system={"k": 0.95})
    result = run_cli(["simulate", "--quiet", "--config", config, "--out", str(tmp_path / "out")])
    assert result.returncode == EXIT_OK
    assert result.stderr.splitlines() == [
        f"{config}:0: UserWarning: k=0.95 exceeds min(gamma1, gamma2)=0.9407; "
        "state amplitude is unphysical"
    ]


def test_time_grid_below_float_resolution_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, time_grid={"start": 1e16, "end": 1e16 + 8, "step": 1.0})
    code = main(["simulate", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "below the float resolution" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_invalid_swept_value_is_config_error(tmp_path, capsys):
    config = write_config(
        tmp_path, sweep={"parameter": "rates.rho1", "values": [0.3, -0.1]}
    )
    code = main(["sweep", "--config", config, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "sweep value -0.1: self-relaxation rate rho1 must be > 0" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("probe_time", ["Infinity", "1e309"])
def test_probe_time_that_is_not_finite_is_config_error(tmp_path, capsys, probe_time):
    config = write_config(
        tmp_path, sweep={"parameter": "delta_scale", "values": [0.5], "probe_time": 0.5}
    )
    with open(config, "r+") as fh:
        text = fh.read().replace('"probe_time": 0.5', f'"probe_time": {probe_time}')
        fh.seek(0)
        fh.write(text)
    code = main(["sweep", "--config", config, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("ppsrelax: config error: ") and err.count("\n") == 1
    assert "sweep.probe_time must be finite" in err and "Traceback" not in err


def test_negative_seed_override_is_config_error(tmp_path, capsys):
    code = main(["pipeline", "--out", str(tmp_path), "--seed", "-5"])
    assert code == EXIT_CONFIG
    assert "noise.seed must be >= 0" in capsys.readouterr().err


#: Replacement values of the config fuzz test: null, bools, strings, lists,
#: objects, non-finite, huge and negative numbers.
MUTATIONS = (
    None, True, False, "", "1", "inf", [], [1.0], {}, math.nan, math.inf, -math.inf, -1, -0.5, 0,
    10**400, 1e300,
)


def fuzz_base(command):
    doc = scenario_to_dict(default_pipeline_scenario())
    if command == "sweep":
        doc["sweep"] = {"parameter": "delta_scale", "values": [0.0, 0.5, 1.0], "probe_time": 0.5}
    return doc


def field_paths(node, prefix=()):
    """Paths of every section, field and list item of a config document."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, (*prefix, key))


@pytest.mark.filterwarnings("ignore")
def test_config_fuzz_never_escapes(tmp_path):
    """Every section, field and list item of each command's config, set
    to each of MUTATIONS in turn, ends in a documented exit code, never a
    traceback; the assertion lists every run that escapes."""
    config, escapes = tmp_path / "fuzz.json", []
    for command in ("simulate", "sweep", "pipeline"):
        for *parents, key in field_paths(fuzz_base(command)):
            for value in MUTATIONS:
                doc = fuzz_base(command)
                node = doc
                for name in parents:
                    node = node[name]
                node[key] = value
                config.write_text(json.dumps(doc))
                argv = [command, "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]
                try:
                    code = main(argv)
                except Exception as exc:
                    code = repr(exc)
                if code not in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO):
                    escapes.append((command, (*parents, key), value, code))
    assert escapes == []
