"""The simulate, sweep and pipeline runners and the CSV format they share.

Each runner turns a parsed config into one deterministic CSV: identical
config and seed give byte-identical files. Every file opens with ``#``
lines (kind and schema version, units, the scenario as JSON), so a
report needs nothing but the CSV; ``_read_csv`` reads that layout back.
"""

from __future__ import annotations

import json
import math
import os
import threading
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import analysis, relaxation, spectra, svg
from .scenario import (
    SCHEMA_VERSION,
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

#: Grid samples of the spectra the pipeline synthesizes and fits in one
#: batch: 128 spectra of the default 801 points, whose noise is drawn and
#: whose normal equations are built spectra.NORMAL_EQUATION_ROWS at a time
#: (the first ones from basis functions the batch shares). A fit thread
#: takes the next batch whenever it is free.
BATCH_SAMPLES = 128 * 801

#: Live spectra at or below which a batch's fit stops and hands them to
#: the straggler pool. Most of a batch's iterations run on a few live
#: rows, each paying 130-180 us of GIL-held bookkeeping that holds up the
#: other fit thread; the pool pays it once for many batches. On the
#: default grid, in process: with no pool (0) a run took 3-8 % longer; 4
#: ran within 2 % of 8 and held 0.2 MB less at peak; 16 held 1.2 MB more.
#: A batch of fewer than 4 times this many spectra (a grid of over 3 204
#: points) runs to its end. In process, over 1 010 spectra, the pool saved
#: 13 % at 64 spectra a batch, 7 % at 42 and 3 % at 32; at 25, 17 and 9 it
#: saved nothing and only copied spectra.
_POOL_ROWS = 8

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
            fh.write(f"# scenario: {scenario_line}\n")
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
    times = scenario.time_grid.times()
    kept = {label: [] for label in labels}  # coefficient rows, for the plot only

    def lines():
        for label in labels:
            template = label.value + ",%.12g" * 8 + "\n"
            for start in range(0, len(times), SIMULATE_BLOCK_TIMES):
                block = times[start : start + SIMULATE_BLOCK_TIMES]
                part = analysis.compare_pps(gamma, sys_obj, block, (label,))
                rows = part.coefficients[label]
                if plot:
                    kept[label].append(rows)
                a_minus_a0 = rows[:, 0] - sys_obj.k
                table = np.column_stack((part.times, part.states[0], rows, a_minus_a0))
                yield from _csv_text(template, table)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "simulate.csv"
    _write_csv(csv_path, "simulate", scenario_to_dict(scenario), SIMULATE_COLUMNS, lines())
    written = [str(csv_path)]
    if plot:
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


def _sweep_table(sweep: SweepSpec) -> np.ndarray:
    """Rows (value, a_diff_initial, a_diff_probe, b_absdiff_probe,
    c_absdiff_probe) [N, 5] of the 00 / 11 pair, one per swept value."""
    base = sweep.base
    rates = sweep_rates(base, sweep.parameter, sweep.values)
    # one matrix per swept value, broadcast over the two states
    gamma = relaxation.diagonalize(relaxation.rate_matrix(rates)[:, None])
    relaxation.check_initial_rate_window(gamma, base.tau)
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
        (sweep.values, initial00[:, 0] - initial11[:, 0], split[:, 0], np.abs(split[:, 1:]))
    )


def run_sweep(sweep: SweepSpec, out_dir) -> str:
    """Differential-decay metrics of the 00 / 11 pair per swept value."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = _csv_text(",".join(["%.12g"] * 5) + "\n", _sweep_table(sweep))
    doc = scenario_to_dict(sweep.base)
    doc["sweep"] = {k: v for k, v in _to_doc(sweep).items() if k != "base"}
    csv_path = out / "sweep.csv"
    _write_csv(csv_path, "sweep", doc, SWEEP_COLUMNS, lines)
    return str(csv_path)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_threads(task, items: Sequence) -> list:
    """``[task(item) for item in items]`` on one thread per usable CPU,
    the calling thread among them; each thread takes the next item not
    yet taken whenever it finishes one, so a slow item holds up only the
    thread running it. The calling thread takes items rather than wait:
    ``ThreadPoolExecutor.map``, under which it runs none, ran perfbench's
    pipeline-dense as fast on a 2-vCPU VM but raised its peak RSS from
    45.3 to 48.4 MB (6 of 6 pairs).

    Once a call raises, no thread starts another item, and the first
    exception raised (an interrupt of the calling thread before any) is
    re-raised here after every thread has stopped.
    """
    results = [None] * len(items)
    errors = []
    count = min(_usable_cpus(), len(items))
    indices = iter(range(len(items)))
    taking = threading.Lock()

    def work() -> None:
        try:
            while not errors:
                with taking:
                    index = next(indices, None)
                if index is None:
                    return
                results[index] = task(items[index])
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(1, count)]
    for thread in threads:
        thread.start()
    try:
        work()
    except BaseException as exc:  # an interrupt reaches the calling thread only
        errors.insert(0, exc)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _fit_spectra(
    scenario: Scenario, freqs: np.ndarray, pairs: np.ndarray, keys: np.ndarray
) -> spectra.DoubletFits:
    """Synthesize, degrade and fit one doublet per line-integral pair of
    ``pairs`` [K, 2]; spectrum k draws its noise from
    ``default_rng([seed, *keys[k]])``.

    The noise seeds of the whole run are hashed into SeedSequence words
    at once, here. Spectra are made and fitted a batch of about
    BATCH_SAMPLES grid samples at a time, and the batches run on one
    thread per usable CPU, each thread taking the next batch when it is
    free (numpy releases the GIL in the array work that dominates a
    batch). A batch of at least 4 _POOL_ROWS spectra stops its fit once
    at most _POOL_ROWS are still live and puts them in the straggler
    pool, each with a copy of its spectrum. The thread that brings the
    pool to a batch's worth of spectra finishes them all in one
    iteration, and the calling thread finishes what is left after the
    fit threads. So a thread holds at most about two batches of spectra,
    and less than one waits in the pool, whatever the grid and the run's
    length. A row's result depends neither on the batch size, nor on the
    thread count, nor on where it finishes. Numpy's float warnings are
    off in every batch and in the pool: a spectrum that overflows fails
    its fit, and its row records that.
    """
    j_coupling, fwhm, noise = scenario.sys.j_coupling, scenario.spectrum.fwhm, scenario.noise
    batch = max(1, BATCH_SAMPLES // len(freqs))
    handoff = _POOL_ROWS if batch >= 4 * _POOL_ROWS else 0
    setup = spectra._fit_setup(freqs, j_coupling, fwhm)
    noisy = not math.isinf(noise.snr)
    words = spectra._keyed_seed_words(noise.seed, keys) if noisy else None
    fitted = spectra._unfitted(len(pairs))
    pool, pooling = [], threading.Lock()

    def fit(start: int) -> None:
        with np.errstate(all="ignore"):  # numpy keeps this state per thread
            amps = spectra.doublet_amps(freqs, pairs[start : start + batch], j_coupling, fwhm)
            if noisy:
                spectra._add_noise(amps, noise.snr, words[start : start + batch])
            stragglers = spectra._fit_batch(setup, amps, fitted, start, handoff)
            if not len(stragglers.amps):
                return
            with pooling:
                pool.append(stragglers)
                if sum(len(pooled.amps) for pooled in pool) < batch:
                    return
                full = pool[:]
                pool.clear()
            spectra._fit_pool(setup, full, fitted)

    _map_threads(fit, range(0, len(pairs), batch))
    with np.errstate(all="ignore"):
        spectra._fit_pool(setup, pool, fitted)
    return spectra._doublet_fits(setup, fitted)


def run_pipeline(scenario: Scenario, out_dir, seed_override: int | None = None) -> str:
    """Full measurement chain over the scenario time grid.

    Requires ``readout = "spectra"`` and a noise block (the snr may be
    the "inf" sentinel). Fit failures are recorded per row and the run
    continues, with one UserWarning at the written CSV that counts them;
    only a failed equilibrium reference fit ends it.
    """
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
    trajectories = analysis.compare_pps(
        relaxation.build_matrix(scenario.rates), sys_obj, scenario.time_grid.times(), labels
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    times = trajectories.times
    # the equilibrium references of nucleus 1 and 2, then label by label,
    # time by time, nucleus 1 before 2; each spectrum's noise is keyed by
    # (state code, time index, nucleus), never by its place in this list
    modes = np.concatenate(
        ([equilibrium_modes(sys_obj)], trajectories.states.reshape(-1, 3))
    )
    codes = [int(label.value, 2) for label in labels]
    grid = np.meshgrid(codes, np.arange(len(times)), (1, 2), indexing="ij")
    references = [(EQUILIBRIUM_STATE_CODE, 0, nucleus) for nucleus in (1, 2)]
    keys = np.concatenate((references, np.stack(grid, -1).reshape(-1, 3)))
    with np.errstate(over="ignore"):  # a line of inf integral fails its fit, as below
        pairs = doublet_pairs(modes).reshape(-1, 2)
    fits = _fit_spectra(scenario, freqs, pairs, keys)
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
