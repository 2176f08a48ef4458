"""The simulate, sweep and pipeline runners and the CSV format they share.

Each runner turns a parsed config into one deterministic CSV: identical
config and seed give byte-identical files, simulate's and sweep's under
any BLAS kernel whose eigendecomposition agrees. Every file opens with ``#``
lines (kind and schema version, units, the scenario as JSON), so a
report needs nothing but the CSV; ``_read_csv`` reads that layout back.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import analysis, relaxation
from .scenario import (
    SCHEMA_VERSION,
    SWEEP_BLOCK_VALUES,
    ConfigError,
    NoiseSpec,
    Scenario,
    SweepSpec,
    _decode_json,
    _to_doc,
    scenario_to_dict,
    sweep_rates,
)
from .spins import PpsLabel, doublet_pairs, equilibrium_modes, pps_modes

__all__ = ["SchemaMismatch", "run_simulate", "run_sweep", "run_pipeline"]

#: Noise-key state code of the two equilibrium reference spectra; a
#: pseudo-pure state uses its basis index, 0 (00) to 3 (11).
EQUILIBRIUM_STATE_CODE = 4

#: CSV rows formatted by one ``%`` call; sizes from 16 to 1 024 rows run
#: within a few percent of each other.
CSV_BLOCK_ROWS = 64

#: Grid times simulate propagates, decomposes and formats at once, per
#: state: a [4 096, 8] table of 256 KB. On simulate-long (4 states x
#: 50 001 times), in process, 256 to 65 536 times a block ran in the same
#: CPU time and 64 took 30 % more; the traced peak was 0.9 MB up to 4 096,
#: 2.3 MB at 16 384 and 6.2 MB at 65 536.
SIMULATE_BLOCK_TIMES = 64 * CSV_BLOCK_ROWS

SIMULATE_COLUMNS = ("pps", "t", "c1", "c2", "c12", "A", "B", "C", "A_minus_A0")
SWEEP_COLUMNS = (
    "value",
    "a_diff_initial",
    "a_diff_probe",
    "b_absdiff_probe",
    "c_absdiff_probe",
)
PIPELINE_COLUMNS = (
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
)


class SchemaMismatch(ValueError):
    """A CSV handed to the report does not carry the expected schema."""


def _write_csv(path, kind: str, scenario_doc: dict, columns: Sequence[str], lines) -> None:
    """Write the ``#`` lines, the header and the text of ``lines``; when
    ``lines`` or a write raises, the partial file is deleted first."""
    scenario_line = json.dumps(scenario_doc, sort_keys=True, separators=(",", ":"))
    fh = open(path, "w", newline="")
    try:
        with fh:
            fh.write(f"# ppsrelax {kind} v{SCHEMA_VERSION}\n")
            fh.write("# units: time s, rates 1/s, amplitudes relative\n")
            fh.writelines(("# scenario: ", scenario_line, "\n"))  # a long line is not copied
            fh.write(",".join(columns) + "\n")
            fh.writelines(lines)
    except BaseException:
        os.remove(path)
        raise


def _csv_text(template: str, table: np.ndarray):
    """Text of the rows of ``table`` [R, C], each formatted by the one-row
    ``%`` template, yielded CSV_BLOCK_ROWS rows at a time, so the text of
    a whole table is never held."""
    block = template * CSV_BLOCK_ROWS
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        rows = table[start : start + CSV_BLOCK_ROWS]
        text = block if len(rows) == CSV_BLOCK_ROWS else template * len(rows)
        yield text % tuple(rows.ravel().tolist())


def run_simulate(scenario: Scenario, out_dir, plot: bool = False) -> list[str]:
    """Exact coefficient trajectories for every requested state.

    Writes ``simulate.csv`` (and SVG companions with ``plot=True``);
    returns the written paths. States are propagated, decomposed and
    formatted SIMULATE_BLOCK_TIMES times at a time, label by label, so
    only the plot holds a whole trajectory.
    """
    sys_obj = scenario.sys
    labels = scenario.pps_labels
    gamma = relaxation.build_matrix(scenario.rates)
    m_inf = equilibrium_modes(sys_obj)
    times = scenario.time_grid.times()
    kept = {label: [] for label in labels}  # coefficient rows, for the plot only

    def lines():
        for label in labels:
            m0 = pps_modes(label, sys_obj)
            template = label.value + ",%.12g" * 8 + "\n"
            for start in range(0, len(times), SIMULATE_BLOCK_TIMES):
                block = times[start : start + SIMULATE_BLOCK_TIMES]
                states = relaxation.propagate(gamma, m0, m_inf, block)
                rows = analysis.decompose_rows(states, label)
                if plot:
                    kept[label].append(rows)
                a_minus_a0 = rows[:, 0] - sys_obj.k
                table = np.column_stack((block, states, rows, a_minus_a0))
                yield from _csv_text(template, table)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "simulate.csv"
    _write_csv(csv_path, "simulate", scenario_to_dict(scenario), SIMULATE_COLUMNS, lines())
    written = [str(csv_path)]
    if plot:
        from . import svg

        # A(t) - A(0), B(t), C(t)
        deviations = {
            label: np.concatenate(rows) - (sys_obj.k, 0.0, 0.0) for label, rows in kept.items()
        }
        for name, column, ylab in (
            ("simulate_A.svg", 0, "A(t) - A(0)"),
            ("simulate_B.svg", 1, "B(t)"),
            ("simulate_C.svg", 2, "C(t)"),
        ):
            series = [
                (f"pps {label.value}", times, deviations[label][:, column])
                for label in labels
            ]
            svg_path = out / name
            svg.line_plot(
                svg_path,
                series,
                title=f"{scenario.scenario_id}: {ylab}",
                xlabel="time (s)",
                ylabel=ylab,
            )
            written.append(str(svg_path))
    return written


def _sweep_matrices(sweep: SweepSpec, values: Sequence[float]) -> relaxation.RelaxationMatrix:
    """The diagonalized rate matrices [B, 1, 3, 3] of ``values``, a block
    of the swept values: one per value, broadcast over the two states."""
    rates = sweep_rates(sweep.base, sweep.parameter, values)
    return relaxation.diagonalize(relaxation.rate_matrix(rates)[:, None])


def _sweep_table(
    sweep: SweepSpec, values: Sequence[float], gamma: relaxation.RelaxationMatrix, seen: list
) -> np.ndarray:
    """Rows (value, a_diff_initial, a_diff_probe, b_absdiff_probe,
    c_absdiff_probe) [B, 5] of the 00 / 11 pair, one per value of
    ``values``, a block of the swept values, whose matrices ``gamma``
    (``_sweep_matrices``) may have been diagonalized on another thread.

    It does not warn: ``seen`` holds the lowest eigenvalue and the largest
    |eigenvalue| of the blocks tabulated so far, and takes this block's
    before any state is propagated, so a block that overflows counts too.
    """
    base = sweep.base
    seen[:] = min(seen[0], gamma.min_eigenvalue), max(seen[1], gamma.max_eigenvalue)
    labels = (PpsLabel.P00, PpsLabel.P11)
    m0 = [pps_modes(label, base.sys) for label in labels]
    m_inf = equilibrium_modes(base.sys)
    initial = relaxation.linear_step(gamma.entries, m0, m_inf, base.tau)
    probe = relaxation.propagate(gamma, m0, m_inf, (sweep.probe_time,))[:, :, 0]
    (initial00, initial11), (probe00, probe11) = [
        [analysis.decompose_rows(states[:, i], label) for i, label in enumerate(labels)]
        for states in (initial, probe)
    ]
    split = probe00 - probe11
    return np.column_stack(
        (values, initial00[:, 0] - initial11[:, 0], split[:, 0], np.abs(split[:, 1:]))
    )


def _warn_sweep(lowest: float, largest: float, tau: float) -> None:
    """The sweep's warnings, once for all its blocks, attributed to the
    line of run_sweep that calls this."""
    relaxation.check_positive_definite(lowest)
    relaxation.check_initial_rate_window(largest, tau)


def run_sweep(sweep: SweepSpec, out_dir) -> str:
    """Differential-decay metrics of the 00 / 11 pair per swept value.

    Writes ``sweep.csv`` and returns its path. Values are turned into
    matrices, states, rows and text SWEEP_BLOCK_VALUES at a time, so only
    a few blocks of them are held; what still grows with the values is
    the config's values themselves and the ``# scenario:`` line that
    repeats them. When the process may use two or more CPUs and there is
    more than one block, the blocks' matrices are built and diagonalized
    on one worker thread (``_threads._ahead``), which starts before the
    ``# scenario:`` line is encoded and runs at most two finished blocks
    ahead, while this thread propagates, decomposes and formats; the
    bytes are the same on one thread. The run warns at most once per
    category, after its last block or its failure, on this thread: of
    the lowest eigenvalue and of the largest |eigenvalue| over every
    value tabulated. A failure raises here at the block that fails, and
    the worker is joined before the run returns or raises.
    """
    from . import _threads

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    template = ",".join(["%.12g"] * 5) + "\n"
    values, seen = sweep.values, [math.inf, 0.0]
    starts = range(0, len(values), SWEEP_BLOCK_VALUES)

    def block(start: int) -> Sequence[float]:
        return values[start : start + SWEEP_BLOCK_VALUES]

    csv_path = out / "sweep.csv"
    try:
        with _threads._ahead(lambda start: _sweep_matrices(sweep, block(start)), starts) as matrices:
            lines = (
                text
                for start, gamma in zip(starts, matrices)
                for text in _csv_text(template, _sweep_table(sweep, block(start), gamma, seen))
            )
            doc = scenario_to_dict(sweep.base)
            doc["sweep"] = {k: v for k, v in _to_doc(sweep).items() if k != "base"}
            _write_csv(csv_path, "sweep", doc, SWEEP_COLUMNS, lines)
    finally:
        _warn_sweep(*seen, sweep.base.tau)
    return str(csv_path)


def run_pipeline(scenario: Scenario, out_dir, seed_override: int | None = None) -> str:
    """Full measurement chain over the scenario time grid.

    Requires ``readout = "spectra"`` and a noise block (the snr may be
    the "inf" sentinel). Fit failures are recorded per row and the run
    continues, with one UserWarning at the written CSV that counts them;
    only a failed equilibrium reference fit ends it.
    """
    from . import spectra

    if scenario.readout != "spectra":
        raise ConfigError(
            f'pipeline requires readout "spectra", got {scenario.readout!r}'
        )
    if scenario.noise is None:
        raise ConfigError("pipeline requires the noise block (snr may be \"inf\")")
    if seed_override is not None:
        scenario = replace(
            scenario, noise=NoiseSpec(scenario.noise.snr, seed_override)
        )

    sys_obj = scenario.sys
    spec = scenario.spectrum
    try:
        freqs = spectra.frequency_grid(sys_obj.j_coupling, spec.fwhm, spec.span, spec.points)
    except ValueError as exc:
        raise ConfigError(f"spectrum: {exc}") from None
    labels = scenario.pps_labels
    times = scenario.time_grid.times()
    m_inf = equilibrium_modes(sys_obj)
    m0 = [pps_modes(label, sys_obj) for label in labels]
    states = relaxation.propagate(relaxation.build_matrix(scenario.rates), m0, m_inf, times)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the equilibrium references of nucleus 1 and 2, then label by label,
    # time by time, nucleus 1 before 2; each spectrum's noise is keyed by
    # (state code, time index, nucleus), never by its place in this list
    modes = np.concatenate(([m_inf], states.reshape(-1, 3)))
    codes = [int(label.value, 2) for label in labels]
    grid = np.meshgrid(codes, np.arange(len(times)), (1, 2), indexing="ij")
    references = [(EQUILIBRIUM_STATE_CODE, 0, nucleus) for nucleus in (1, 2)]
    keys = np.concatenate((references, np.stack(grid, -1).reshape(-1, 3)))
    with np.errstate(over="ignore"):  # a line of inf integral fails its fit, as below
        pairs = doublet_pairs(modes).reshape(-1, 2)
    snr, seed = scenario.noise.snr, scenario.noise.seed
    fits = spectra.fit_noisy_doublets(freqs, pairs, sys_obj.j_coupling, spec.fwhm, snr, seed, keys)
    for row in (0, 1):
        if not fits.converged[row]:
            raise spectra.NotConverged(
                f"equilibrium fit of nucleus {row + 1}: not converged after "
                f"{fits.iterations[row]} iterations, residual norm "
                f"{fits.residual_norm[row]:.6g}"
            )

    # rows in spectrum order after the two references: label, time, nucleus
    eq1, eq2 = fits.peaks[:2, :, 1]
    fitted = fits.peaks[2:, :, 1]  # (line0, line1) of each row
    by_state = fitted.reshape(len(labels), len(times), 2, 2)
    both = fits.converged[2:].reshape(len(labels), len(times), 2).all(axis=-1)
    extracted = np.full((len(labels), len(times), 4), np.nan)
    for i, label in enumerate(labels):
        if both[i].any():
            extracted[i, both[i]] = spectra.coefficient_rows(
                by_state[i, both[i], 0], by_state[i, both[i], 1], eq1, eq2, label
            )
    table = np.column_stack(
        (
            np.tile(np.repeat(times, 2), len(labels)),
            np.tile([1, 2], len(labels) * len(times)),
            fitted,
            np.repeat(extracted.reshape(-1, 4), 2, axis=0),
            fits.residual_norm[2:],
            fits.converged[2:],
        )
    )
    lines = (
        text
        for label, rows in zip(labels, table.reshape(len(labels), -1, table.shape[1]))
        for text in _csv_text(label.value + ",%.12g,%d" + ",%.12g" * 7 + ",%d\n", rows)
    )
    csv_path = out / "pipeline.csv"
    _write_csv(csv_path, "pipeline", scenario_to_dict(scenario), PIPELINE_COLUMNS, lines)
    failed = int(np.count_nonzero(~fits.converged[2:]))
    if failed:
        warnings.warn_explicit(
            f"{failed} of {len(fits.converged) - 2} state spectra did not converge; "
            "their rows read converged 0",
            UserWarning,
            str(csv_path),
            0,
        )
    return str(csv_path)


def _read_csv(path) -> tuple[str, dict, np.ndarray]:
    """Kind, scenario document and data rows of a CSV this tool wrote, the
    rows read by numpy's ``loadtxt`` straight into one structured array
    with a field per header column (``pps`` as text, every other as
    float); a file that does not parse as one raises SchemaMismatch."""
    kind, scenario_doc, header = "", {}, []
    try:
        with open(path, encoding="utf-8") as fh:
            line = fh.readline()
            while line.startswith("#") or line == "\n":
                body = line[1:].strip()
                if body.startswith("ppsrelax "):
                    kind = body.split()[1]
                elif body.startswith("scenario:"):
                    scenario_doc = _decode_json(body.split(":", 1)[1], "scenario line")
                line = fh.readline()
            if kind and line:
                header = line.rstrip("\n").split(",")
                fields = [(name, "U3" if name == "pps" else float) for name in header]
                with warnings.catch_warnings():  # an empty input is reported below
                    warnings.simplefilter("ignore", UserWarning)
                    rows = np.loadtxt(fh, dtype=fields, delimiter=",", ndmin=1)
    except UnicodeDecodeError:
        raise SchemaMismatch(f"{path}: not UTF-8 text") from None
    except ConfigError as exc:
        raise SchemaMismatch(f"{path}: {exc}") from None
    except ValueError as exc:  # numpy's advice after the ";" is for its callers
        raise SchemaMismatch(f"{path}: malformed table: {str(exc).partition(';')[0]}") from None
    if not header:
        raise SchemaMismatch(f"{path}: not a ppsrelax CSV (missing header)")
    if not isinstance(scenario_doc, dict):
        raise SchemaMismatch(f"{path}: scenario line is not a JSON object")
    if not rows.size:
        raise SchemaMismatch(f"{path}: no data rows")
    if "pps" in header and not np.isin(rows["pps"], [label.value for label in PpsLabel]).all():
        raise SchemaMismatch(f"{path}: column 'pps' holds a cell that is not a state label")
    return kind, scenario_doc, rows
