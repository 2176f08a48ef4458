"""Scenario configuration and the simulate / sweep / pipeline / report runners.

Configuration is a single JSON document with a ``schema_version`` field.
Unknown keys anywhere in the document are rejected: a typo in a rate
name must fail loudly rather than silently change the physics. All CSV
output is deterministic (identical config and seed give byte-identical
files); every file starts with ``#`` metadata lines that embed the
scenario so reports can be computed from the CSV alone. Times are in
seconds and rates in 1/s throughout.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import math
import os
import sys as _sys
import threading
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from . import analysis, spectra, svg
from .relaxation import (
    RATE_FIELDS,
    RelaxationRates,
    build_matrix,
    check_initial_rate_window,
    diagonalize,
    invalid_rates,
    linear_step,
    propagate,
    rate_matrix,
)
from .spins import (
    PpsLabel,
    SpinSystem,
    doublet_pairs,
    equilibrium_modes,
    pps_modes,
)

__all__ = [
    "ConfigError",
    "SchemaMismatch",
    "TimeGrid",
    "NoiseSpec",
    "SpectrumSpec",
    "Scenario",
    "SweepSpec",
    "parse_scenario",
    "parse_sweep",
    "load_scenario",
    "load_sweep",
    "default_scenario",
    "default_sweep",
    "default_pipeline_scenario",
    "run_simulate",
    "run_sweep",
    "run_pipeline",
    "run_report",
]

SCHEMA_VERSION = 1

#: Largest number of time-grid samples a config may ask for (20x the
#: 50 001 of a 1 ms grid over 50 s).
MAX_TIME_SAMPLES = 10**6

#: Largest number of samples a config may give a spectrum (125x the
#: default 801).
MAX_SPECTRUM_POINTS = 100_000

#: Grid samples of the spectra the pipeline synthesizes and fits in one
#: solver call: 128 spectra of the default 801 points, whose normal
#: equations the solver builds spectra.NORMAL_EQUATION_ROWS at a time.
BATCH_SAMPLES = 128 * 801

#: Noise-key state code of the two equilibrium reference spectra; a
#: pseudo-pure state uses its basis index, 0 (00) to 3 (11).
EQUILIBRIUM_STATE_CODE = 4

#: CSV rows formatted by one ``%`` call; sizes from 16 to 1 024 rows run
#: within a few percent of each other.
CSV_BLOCK_ROWS = 64

#: Noise seed of the shipped default scenarios.
DEFAULT_SEED = 20240801

#: Interference-rate pairs used by the shipped default sweep. The values
#: are illustrative; they keep delta2 = delta1 / 3 so that the spin-1
#: channel dominates.
DEFAULT_DELTA_LADDER = ((0.0, 0.0), (0.05, 0.0167), (0.10, 0.033), (0.15, 0.05))

READOUTS = ("modes", "coefficients", "spectra")

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


class ConfigError(ValueError):
    """Configuration is malformed; the message names the offending field."""


class SchemaMismatch(ValueError):
    """A CSV handed to the report does not carry the expected schema."""


@dataclass(frozen=True)
class TimeGrid:
    start: float = field(default=0.0, kw_only=True)
    end: float
    step: float

    def __post_init__(self):
        finite = all(map(math.isfinite, (self.start, self.end, self.step)))
        if not (finite and self.step > 0 and self.end > self.start >= 0):
            raise ConfigError(
                f"time_grid requires finite start >= 0, end > start, step > 0; "
                f"got start={self.start}, end={self.end}, step={self.step}"
            )
        if self.samples > MAX_TIME_SAMPLES:
            raise ConfigError(
                f"time_grid holds more than {MAX_TIME_SAMPLES} samples; got "
                f"start={self.start}, end={self.end}, step={self.step}"
            )

    @property
    def samples(self) -> int:
        """Number of grid times start + i * step up to end; a count above
        MAX_TIME_SAMPLES reads as MAX_TIME_SAMPLES + 1."""
        intervals = min((self.end - self.start) / self.step, MAX_TIME_SAMPLES)
        return math.floor(intervals + 1e-9) + 1

    def times(self) -> np.ndarray:
        return self.start + np.arange(self.samples) * self.step


@dataclass(frozen=True)
class NoiseSpec:
    # the config may give the noiseless snr as "inf"
    snr: float = field(metadata={"sentinels": {"inf": math.inf, "Infinity": math.inf}})
    seed: int

    def __post_init__(self):
        if not self.snr > 0:
            raise ConfigError(f"noise.snr must be > 0, got {self.snr}")
        if not self.seed >= 0:
            raise ConfigError(f"noise.seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SpectrumSpec:
    fwhm: float = 1.0
    span: float = 40.0
    points: int = 801

    def __post_init__(self):
        finite = 0 < self.fwhm < math.inf and 0 < self.span < math.inf
        if not (finite and 2 <= self.points <= MAX_SPECTRUM_POINTS):
            raise ConfigError(
                f"spectrum requires finite fwhm > 0 and span > 0, "
                f"2 <= points <= {MAX_SPECTRUM_POINTS}; got "
                f"fwhm={self.fwhm}, span={self.span}, points={self.points}"
            )


@dataclass(frozen=True)
class Scenario:
    sys: SpinSystem
    rates: RelaxationRates
    pps_labels: tuple[PpsLabel, ...]
    time_grid: TimeGrid
    tau: float
    readout: str = "coefficients"
    noise: NoiseSpec | None = None
    spectrum: SpectrumSpec = SpectrumSpec()
    scenario_id: str = ""

    def __post_init__(self):
        if self.readout not in READOUTS:
            raise ConfigError(
                f"readout must be one of {READOUTS}, got {self.readout!r}"
            )
        if not self.pps_labels:
            raise ConfigError("pps_labels must be nonempty")
        if not 0 <= self.tau <= self.time_grid.end:
            raise ConfigError(
                f"tau must lie in [0, time_grid.end], got {self.tau}"
            )


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple[float, ...]
    base: Scenario
    probe_time: float = 0.5

    def __post_init__(self):
        if not self.values:
            raise ConfigError("sweep.values must be nonempty")
        if not self.probe_time > 0:
            raise ConfigError(f"sweep.probe_time must be > 0, got {self.probe_time}")
        error = invalid_rates(sweep_rates(self.base, self.parameter, self.values))
        if error is not None:
            row, message = error
            raise ConfigError(f"sweep value {self.values[row]!r}: {message}")


#: Config keys that differ from the name of the field they fill.
_CONFIG_KEYS = {"sys": "system", "scenario_id": "id"}


@functools.cache
def _field_table(cls) -> tuple[tuple[str, str, object, bool, dict], ...]:
    """(config key, field name, resolved type, required, string sentinels)
    for each field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            _CONFIG_KEYS.get(f.name, f.name),
            f.name,
            hints[f.name],
            f.default is MISSING and f.default_factory is MISSING,
            f.metadata.get("sentinels", {}),
        )
        for f in fields(cls)
    )


def _build(cls, doc, where: str, **given):
    """Instance of the config dataclass ``cls`` from the JSON object ``doc``
    at path ``where`` ("" for the root); ``given`` fills fields that are
    not config keys. Missing optional fields take the class default."""
    section = where or "config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} must be a JSON object")
    table = [row for row in _field_table(cls) if row[1] not in given]
    unknown = set(doc) - {row[0] for row in table}
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(sorted(unknown))}")
    kwargs = dict(given)
    for key, name, kind, required, sentinels in table:
        path = f"{where}.{key}" if where else key
        if key in doc:
            kwargs[name] = _value(kind, doc[key], path, sentinels)
        elif required:
            raise ConfigError(f"missing required field {path}")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _value(kind, raw, path: str, sentinels=()):
    """``raw`` checked against the type ``kind`` and converted to it;
    ``sentinels`` maps strings a float field accepts to their value."""
    if typing.get_origin(kind) is types.UnionType:  # X | None
        if raw is None:
            return None
        (kind,) = (arg for arg in typing.get_args(kind) if arg is not types.NoneType)
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path} must be a nonempty list, got {raw!r}")
        if item is float and set(map(type, raw)) <= {int, float}:
            return tuple(map(float, raw))  # all numbers: one pass
        return tuple(_value(item, v, f"{path}[{i}]") for i, v in enumerate(raw))
    if is_dataclass(kind):
        return _build(kind, raw, path)
    if kind is float:
        if isinstance(raw, str) and raw in sentinels:
            return sentinels[raw]
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            return float(raw)
        raise ConfigError(f"{path} must be a number, got {raw!r}")
    if kind is int:
        if isinstance(raw, int) and not isinstance(raw, bool):
            return raw
        raise ConfigError(f"{path} must be an integer, got {raw!r}")
    if not isinstance(raw, str):
        raise ConfigError(f"{path} must be a string, got {raw!r}")
    if kind is str:
        return raw
    try:
        return kind(raw)  # an Enum, by its string value
    except ValueError:
        raise ConfigError(
            f"{path}: {raw!r} is not one of {', '.join(m.value for m in kind)}"
        ) from None


def _check_root(doc) -> None:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if "schema_version" not in doc:
        raise ConfigError("missing required field schema_version")
    version = doc["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be the integer {SCHEMA_VERSION}, got {version!r}"
        )


def parse_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document, rejecting unknown keys
    and values of the wrong type."""
    _check_root(doc)
    scenario = _build(Scenario, {k: v for k, v in doc.items() if k != "schema_version"}, "")
    if not scenario.scenario_id:
        scenario = replace(scenario, scenario_id="scenario-" + _digest(scenario))
    return scenario


def parse_sweep(doc: dict) -> SweepSpec:
    """Build a SweepSpec; the document is a scenario plus a ``sweep`` block."""
    _check_root(doc)
    if "sweep" not in doc:
        raise ConfigError("missing required field sweep")
    base = parse_scenario({k: v for k, v in doc.items() if k != "sweep"})
    return _build(SweepSpec, doc["sweep"], "sweep", base=base)


def load_scenario(path) -> Scenario:
    return parse_scenario(_load_json(path))


def load_sweep(path) -> SweepSpec:
    return parse_sweep(_load_json(path))


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def scenario_to_dict(scenario: Scenario) -> dict:
    """The config document of ``scenario``; ``parse_scenario`` reads it back."""
    doc = {"schema_version": SCHEMA_VERSION, **_to_doc(scenario)}
    if scenario.noise is not None and math.isinf(scenario.noise.snr):
        doc["noise"]["snr"] = "inf"
    return doc


def _to_doc(value):
    """JSON form of a config value, the inverse of ``_value``; fields
    holding None are left out."""
    if is_dataclass(value):
        return {
            _CONFIG_KEYS.get(f.name, f.name): _to_doc(getattr(value, f.name))
            for f in fields(value)
            if getattr(value, f.name) is not None
        }
    if isinstance(value, tuple):
        return [_to_doc(item) for item in value]
    return value.value if isinstance(value, enum.Enum) else value


def _digest(scenario: Scenario) -> str:
    doc = scenario_to_dict(scenario)
    doc["id"] = ""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()[:8]


def default_scenario(delta1: float = 0.15, delta2: float = 0.05) -> Scenario:
    """The shipped two-state comparison scenario (interference rates are
    illustrative defaults, delta2 = delta1 / 3)."""
    return Scenario(
        sys=SpinSystem(),
        rates=RelaxationRates(
            rho1=0.3125, rho2=0.33, rho12=0.33, sigma12=0.02, delta1=delta1, delta2=delta2
        ),
        pps_labels=(PpsLabel.P00, PpsLabel.P11),
        time_grid=TimeGrid(end=5.0, step=0.05),
        tau=0.1,
        noise=NoiseSpec(snr=math.inf, seed=DEFAULT_SEED),
        scenario_id="default",
    )


def default_sweep() -> SweepSpec:
    """Joint scale sweep over the shipped interference-rate ladder."""
    base = default_scenario()
    scales = tuple(pair[0] / 0.15 for pair in DEFAULT_DELTA_LADDER)
    return SweepSpec(parameter="delta_scale", values=scales, base=base)


def default_pipeline_scenario() -> Scenario:
    """Default scenario rigged for the measurement pipeline: spectra
    readout, light noise, and the 0 / 1.25 / 2.5 s probe grid."""
    return replace(
        default_scenario(),
        readout="spectra",
        time_grid=TimeGrid(end=2.5, step=1.25),
        noise=NoiseSpec(snr=100.0, seed=DEFAULT_SEED),
        scenario_id="default-pipeline",
    )


def sweep_rates(base: Scenario, parameter: str, values: Sequence[float]) -> np.ndarray:
    """Rate rows [N, 6] (``RATE_FIELDS`` order): the base rates with the
    swept parameter set to each value.

    ``delta_scale`` scales both interference rates jointly; ``rates.<name>``
    replaces a single rate entry.
    """
    table = np.tile([getattr(base.rates, name) for name in RATE_FIELDS], (len(values), 1))
    if parameter == "delta_scale":
        table[:, RATE_FIELDS.index("delta1") :] *= np.asarray(values)[:, None]
    elif parameter.startswith("rates."):
        field = parameter.split(".", 1)[1]
        if field not in RATE_FIELDS:
            raise ConfigError(f"sweep.parameter: unknown rate field {field!r}")
        table[:, RATE_FIELDS.index(field)] = values
    else:
        raise ConfigError(
            f"sweep.parameter must be 'delta_scale' or 'rates.<name>', got {parameter!r}"
        )
    return table


def _write_csv(path, kind: str, scenario_doc: dict, columns: Sequence[str], lines) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# ppsrelax {kind} v{SCHEMA_VERSION}\n")
        fh.write("# units: time s, rates 1/s, amplitudes relative\n")
        fh.write(
            "# scenario: "
            + json.dumps(scenario_doc, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        fh.write(",".join(columns) + "\n")
        fh.writelines(lines)


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
    returns the written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gamma = build_matrix(scenario.rates)
    times = scenario.time_grid.times()
    sys_obj = scenario.sys
    labels = scenario.pps_labels
    m0 = [pps_modes(label, sys_obj).to_tuple() for label in labels]
    states = propagate(gamma, m0, equilibrium_modes(sys_obj).to_tuple(), times)
    coeffs = {
        label: analysis.decompose_rows(modes, label) for label, modes in zip(labels, states)
    }
    lines = (
        text
        for label, modes in zip(labels, states)
        for text in _csv_text(
            label.value + ",%.12g" * 8 + "\n",
            np.column_stack((times, modes, coeffs[label], coeffs[label][:, 0] - sys_obj.k)),
        )
    )
    csv_path = out / "simulate.csv"
    _write_csv(csv_path, "simulate", scenario_to_dict(scenario), SIMULATE_COLUMNS, lines)
    written = [str(csv_path)]
    if plot:
        # A(t) - A(0), B(t), C(t)
        deviations = {label: rows - (sys_obj.k, 0.0, 0.0) for label, rows in coeffs.items()}
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
    gamma = diagonalize(rate_matrix(rates)[:, None])
    check_initial_rate_window(gamma, base.tau)
    labels = (PpsLabel.P00, PpsLabel.P11)
    m0 = [pps_modes(label, base.sys).to_tuple() for label in labels]
    m_inf = equilibrium_modes(base.sys).to_tuple()
    initial = linear_step(gamma.entries, m0, m_inf, base.tau)
    probe = propagate(gamma, m0, m_inf, (sweep.probe_time,))[:, :, 0]
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
    doc["sweep"] = {
        "parameter": sweep.parameter,
        "values": list(sweep.values),
        "probe_time": sweep.probe_time,
    }
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
    the calling thread among them; item i runs on thread i mod threads.

    Once a call raises, no thread starts another item, and the first
    exception raised (an interrupt of the calling thread before any) is
    re-raised here after every thread has stopped.
    """
    results = [None] * len(items)
    errors = []
    count = min(_usable_cpus(), len(items))

    def work(first: int) -> None:
        try:
            for index in range(first, len(items), count):
                if errors:
                    return
                results[index] = task(items[index])
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(first,)) for first in range(1, count)]
    for thread in threads:
        thread.start()
    try:
        work(0)
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

    Spectra are made and fitted a batch of about BATCH_SAMPLES grid
    samples at a time, so the whole run's spectra are never held at once,
    and the batches run on one thread per usable CPU (numpy releases the
    GIL in the array work that dominates a batch). A row's result depends
    neither on the batch size nor on the thread count.
    """
    sys_obj, spec, noise = scenario.sys, scenario.spectrum, scenario.noise
    batch = max(1, BATCH_SAMPLES // len(freqs))

    def fit(start: int) -> spectra.DoubletFits:
        block = pairs[start : start + batch]
        amps = spectra.doublet_amps(freqs, block, sys_obj.j_coupling, spec.fwhm)
        seeds = [[noise.seed, *key] for key in keys[start : start + batch].tolist()]
        amps = spectra.noisy_amps(amps, noise.snr, seeds)
        return spectra.fit_doublets(
            freqs, amps, spectra.doublet_seeds(freqs, amps, sys_obj, spec.fwhm)
        )

    parts = _map_threads(fit, range(0, len(pairs), batch))
    return spectra.DoubletFits(*map(np.concatenate, zip(*parts)))


def run_pipeline(scenario: Scenario, out_dir, seed_override: int | None = None) -> str:
    """Full measurement chain over the scenario time grid.

    Requires ``readout = "spectra"`` and a noise block (the snr may be
    the "inf" sentinel). Fit failures are recorded per row and the run
    continues; only a failed equilibrium reference fit ends it.
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gamma = build_matrix(scenario.rates)
    labels = scenario.pps_labels
    times = scenario.time_grid.times()
    m_inf = equilibrium_modes(sys_obj).to_tuple()
    m0 = [pps_modes(label, sys_obj).to_tuple() for label in labels]
    states = propagate(gamma, m0, m_inf, times)
    # the equilibrium references of nucleus 1 and 2, then label by label,
    # time by time, nucleus 1 before 2; each spectrum's noise is keyed by
    # (state code, time index, nucleus), never by its place in this list
    modes = np.concatenate(([m_inf], states.reshape(-1, 3)))
    keys = np.array(
        [(EQUILIBRIUM_STATE_CODE, 0, nucleus) for nucleus in (1, 2)]
        + [
            (int(label.value, 2), index, nucleus)
            for label in labels
            for index in range(len(times))
            for nucleus in (1, 2)
        ]
    )
    fits = _fit_spectra(scenario, freqs, doublet_pairs(modes).reshape(-1, 2), keys)
    for nucleus in (1, 2):
        if not fits.converged[nucleus - 1]:
            raise spectra.NotConverged(
                f"equilibrium fit of nucleus {nucleus}: no convergence in "
                f"{spectra.FIT_MAX_ITER} iterations",
                fits.fit(nucleus - 1),
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
    return str(csv_path)


#: The columns each report reads: name -> the type they are kept as;
#: text columns are printed or compared as written.
REPORT_COLUMNS = {
    "simulate": {"pps": str, "t": float, "A": float, "B": float, "C": float},
    "sweep": dict.fromkeys(SWEEP_COLUMNS, float),
    "pipeline": {
        "pps": str,
        "t": str,
        "A_proton": float,
        "residual_norm": float,
        "converged": str,
    },
}

#: Data rows whose cells ``report`` holds as strings before it converts
#: them to arrays.
REPORT_BLOCK_ROWS = 4096


def _read_csv(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Kind, scenario document and the columns (name -> array) that the
    kind's report reads of a CSV this tool wrote; a file that does not
    parse as one raises SchemaMismatch. Cells are converted a block of
    rows at a time, so no other cell of the file is ever held."""
    kind, scenario_doc, header, count = "", {}, [], 0
    # per kept column: its type, the cells of the rows read since the last
    # conversion, and the arrays converted so far
    wanted: dict[str, type] = {}
    cells: dict[str, list[str]] = {}
    blocks: dict[str, list[np.ndarray]] = {}

    def convert() -> None:
        for name, values in cells.items():
            try:
                blocks[name].append(np.array(values, dtype=wanted[name]))
            except ValueError:
                raise SchemaMismatch(
                    f"{path}: column {name!r} holds a non-numeric cell"
                ) from None
            values.clear()

    try:
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("ppsrelax "):
                        kind = body.split()[1]
                    elif body.startswith("scenario:"):
                        scenario_doc = json.loads(body.split(":", 1)[1])
                elif line and not header:
                    header = line.split(",")
                    wanted = {
                        name: kept_as
                        for name, kept_as in REPORT_COLUMNS.get(kind, {}).items()
                        if name in header
                    }
                    cells = {name: [] for name in wanted}
                    blocks = {name: [] for name in wanted}
                    kept = [(header.index(name), cells[name]) for name in wanted]
                elif line:
                    row = line.split(",")
                    if len(row) != len(header):
                        raise SchemaMismatch(
                            f"{path}: line {number} has {len(row)} cells, "
                            f"the header {len(header)}"
                        )
                    for column, values in kept:
                        values.append(row[column])
                    count += 1
                    if count % REPORT_BLOCK_ROWS == 0:
                        convert()
    except UnicodeDecodeError:
        raise SchemaMismatch(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"{path}: scenario line is not valid JSON: {exc.msg}") from None
    if not kind or not header:
        raise SchemaMismatch(f"{path}: not a ppsrelax CSV (missing header)")
    if not isinstance(scenario_doc, dict):
        raise SchemaMismatch(f"{path}: scenario line is not a JSON object")
    if not count:
        raise SchemaMismatch(f"{path}: no data rows")
    convert()
    return kind, scenario_doc, {name: np.concatenate(arrays) for name, arrays in blocks.items()}


def _column(columns: dict[str, np.ndarray], name: str, path) -> np.ndarray:
    try:
        return columns[name]
    except KeyError:
        raise SchemaMismatch(f"{path}: missing column {name!r}") from None


def _first_appearance(labels: np.ndarray) -> list[str]:
    """The distinct values of ``labels`` in the order they first appear."""
    names, first = np.unique(labels, return_index=True)
    return names[np.argsort(first)].tolist()


def run_report(csv_paths: Sequence[str], stream: TextIO | None = None) -> None:
    """Human-readable summary of simulate, sweep and pipeline CSVs.

    Prints rate-matrix eigenvalues, per-state initial slopes, ordering
    verdicts for the 00 / 11 pair, and the conventions the numbers rest
    on.
    """
    stream = stream if stream is not None else _sys.stdout
    for path in csv_paths:
        kind, doc, columns = _read_csv(path)
        print(f"== {kind} report: {doc.get('id', '?')} ({path}) ==", file=stream)
        if kind == "simulate":
            _report_simulate(doc, columns, path, stream)
        elif kind == "sweep":
            _report_sweep(doc, columns, path, stream)
        elif kind == "pipeline":
            _report_pipeline(columns, path, stream)
        else:
            print(f"  (no summary implemented for kind {kind!r})", file=stream)
        print(file=stream)


def _report_simulate(doc, columns, path, stream) -> None:
    try:
        scenario = parse_scenario(doc)
    except ConfigError as exc:
        raise SchemaMismatch(f"{path}: scenario line: {exc}") from None
    gamma = build_matrix(scenario.rates)
    eig = ", ".join(format(v, ".6f") for v in gamma.eigenvalues)
    print(f"rate-matrix eigenvalues (1/s): {eig}", file=stream)

    labels = _column(columns, "pps", path)
    times = _column(columns, "t", path)
    abc = [_column(columns, name, path) for name in "ABC"]
    # (times, (A, B, C) rows) of the first two rows of each state, in the
    # order states first appear
    series = {}
    for label in _first_appearance(labels):
        rows = np.flatnonzero(labels == label)[:2]
        series[label] = (times[rows], np.column_stack([column[rows] for column in abc]))

    print("initial slopes (1/s, first sampled interval):", file=stream)
    for label, (ts, coeffs) in series.items():
        if len(ts) < 2:
            raise SchemaMismatch(f"{path}: need at least two rows per state")
        slope_a, slope_b, slope_c = (coeffs[1] - coeffs[0]) / (ts[1] - ts[0])
        print(
            f"  pps {label}: dA/dt={slope_a:+.6f} dB/dt={slope_b:+.6f} dC/dt={slope_c:+.6f}",
            file=stream,
        )

    if "00" in series and "11" in series:
        (t00, coeffs00), (_, coeffs11) = series["00"], series["11"]
        # verdicts at the second sample of each state
        delta_a = coeffs00[1, 0] - coeffs11[1, 0]
        if abs(delta_a) < 1e-12 * (abs(coeffs00[0, 0]) + 1e-30):
            print("00 vs 11: indistinguishable (no interference rates)", file=stream)
        else:
            checks = [
                ("00 slower than 11 (A)", delta_a > 0),
                ("B growth 00 < 11", coeffs00[1, 1] < coeffs11[1, 1]),
                ("C growth 00 < 11", coeffs00[1, 2] < coeffs11[1, 2]),
            ]
            for label, sign, coeffs in (("00", 1, coeffs00), ("11", -1, coeffs11)):
                auto = analysis.closed_form_auto(
                    PpsLabel(label), scenario.rates, scenario.sys, t00[1]
                )
                above, below = ("above", "below") if sign > 0 else ("below", "above")
                checks += [
                    (
                        f"A{label} deviation {above} auto-only",
                        sign * (coeffs[1, 0] - coeffs[0, 0] - auto.a) > 0,
                    ),
                    (f"B{label} {below} auto-only", sign * (auto.b - coeffs[1, 1]) > 0),
                    (f"C{label} {below} auto-only", sign * (auto.c - coeffs[1, 2]) > 0),
                ]
            for name, passed in checks:
                print(f"  {name}: {'PASS' if passed else 'FAIL'}", file=stream)

    print("conventions:", file=stream)
    print(
        "  - excess slopes are derived from the rate matrix: the spin-2 excess"
        " uses rho2 and the spin-1 excess uses rho1 (no transcribed per-state"
        " tables)",
        file=stream,
    )
    print(
        "  - A is normalized per readout nucleus and reported for both"
        " nuclei, never averaged",
        file=stream,
    )


def _report_pipeline(columns, path, stream) -> None:
    converged = _column(columns, "converged", path)
    residuals = _column(columns, "residual_norm", path)
    residuals = residuals[~np.isnan(residuals)]
    n_rows, n_ok = len(converged), int(np.count_nonzero(converged == "1"))
    print(f"measurement rows: {n_rows}, converged fits: {n_ok}/{n_rows}", file=stream)
    if residuals.size:
        print(
            f"residual norm: median {np.median(residuals):.4g}, max {residuals.max():.4g}",
            file=stream,
        )
    a_proton = _column(columns, "A_proton", path)
    extracted = np.flatnonzero(~np.isnan(a_proton))
    labels = _column(columns, "pps", path)[extracted]
    t_col = _column(columns, "t", path)
    # a bounded summary: the first and last extracted time of each state
    for label in _first_appearance(labels):
        ends = extracted[labels == label][[0, -1]]
        for t, a in dict(zip(t_col[ends].tolist(), a_proton[ends].tolist())).items():
            print(f"  pps {label} t={t}: A(proton readout)={a:.6g}", file=stream)


def _report_sweep(doc, columns, path, stream) -> None:
    table = np.column_stack([_column(columns, name, path) for name in SWEEP_COLUMNS])
    sweep = doc.get("sweep")
    parameter = sweep.get("parameter", "?") if isinstance(sweep, dict) else "?"
    print(f"swept {parameter} over {len(table)} values", file=stream)
    a_probe = table[:, 2]
    # a bounded summary: the ends of the sweep and its extreme A-diff(probe)
    picks = {}
    for name, index in (
        ("first", 0),
        ("last", len(table) - 1),
        ("min A-diff(probe)", int(np.argmin(a_probe))),
        ("max A-diff(probe)", int(np.argmax(a_probe))),
    ):
        picks.setdefault(index, []).append(name)
    for index, names in sorted(picks.items()):
        print(
            "  %s: value=%s A-diff(initial)=%s A-diff(probe)=%s |B-diff|=%s |C-diff|=%s"
            % (", ".join(names), *(format(v, ".6g") for v in table[index])),
            file=stream,
        )
    increasing = bool(np.all(a_probe[1:] > a_probe[:-1]))
    print(
        f"  A-difference strictly increasing across sweep: "
        f"{'PASS' if increasing else 'FAIL'}",
        file=stream,
    )
