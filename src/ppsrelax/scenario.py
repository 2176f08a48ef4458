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
import sys as _sys
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from . import analysis, spectra, svg
from .relaxation import (
    RATE_FIELDS,
    RelaxationMatrix,
    RelaxationRates,
    build_matrix,
    check_initial_rate_window,
    diagonalize,
    evolve_exact,
    invalid_rates,
    linear_step,
    propagate,
    rate_matrix,
)
from .spins import (
    PpsLabel,
    SpinSystem,
    equilibrium_modes,
    line_intensities,
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
        if not (0 < self.fwhm < math.inf and 0 < self.span < math.inf and self.points >= 2):
            raise ConfigError(
                f"spectrum requires finite fwhm > 0 and span > 0, points >= 2; got "
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
    row = "%s" + ",%.12g" * 8 + "\n"
    lines = []
    deviations: dict[PpsLabel, np.ndarray] = {}  # A(t) - A(0), B(t), C(t)
    for label, modes in zip(labels, states):
        coeffs = analysis.decompose_rows(modes, label)
        deviations[label] = coeffs - (sys_obj.k, 0.0, 0.0)
        table = np.column_stack((times, modes, coeffs, deviations[label][:, 0]))
        lines.extend(row % (label.value, *values) for values in table.tolist())
    csv_path = out / "simulate.csv"
    _write_csv(csv_path, "simulate", scenario_to_dict(scenario), SIMULATE_COLUMNS, lines)
    written = [str(csv_path)]
    if plot:
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
    table = _sweep_table(sweep)
    row = ",".join(["%.12g"] * 5) + "\n"
    lines = (row % tuple(values) for values in table)
    doc = scenario_to_dict(sweep.base)
    doc["sweep"] = {
        "parameter": sweep.parameter,
        "values": list(sweep.values),
        "probe_time": sweep.probe_time,
    }
    csv_path = out / "sweep.csv"
    _write_csv(csv_path, "sweep", doc, SWEEP_COLUMNS, lines)
    return str(csv_path)


def _doublet_seed(
    spectrum: spectra.Spectrum, sys_obj: SpinSystem, fwhm: float
) -> spectra.DoubletFit:
    """Fit seed at the known doublet geometry (lines at -J/2 and +J/2),
    with integrals read off the sampled amplitude at each center."""
    peaks = []
    for center in (-sys_obj.j_coupling / 2.0, sys_obj.j_coupling / 2.0):
        idx = int(np.argmin(np.abs(spectrum.freqs - center)))
        height = float(spectrum.amps[idx])
        peaks.append(
            spectra.LinePeak(
                center=center,
                integral=height * math.pi * fwhm / 2.0,
                fwhm=fwhm,
            )
        )
    return spectra.DoubletFit(
        peaks=(peaks[0], peaks[1]),
        residual_norm=float("nan"),
        iterations=0,
        converged=False,
    )


def _pipeline_extraction(
    scenario: Scenario,
    gamma: RelaxationMatrix,
    label: PpsLabel,
    t: float,
    eq_fits: dict[int, spectra.DoubletFit],
    seed_stream,
):
    """Synthesize, degrade, fit and extract one time point of one state.

    Returns (intensities, per-nucleus fits, coefficients or None).
    """
    sys_obj = scenario.sys
    spec = scenario.spectrum
    m = evolve_exact(gamma, pps_modes(label, sys_obj), equilibrium_modes(sys_obj), t)
    intensities = line_intensities(m)
    fits: dict[int, spectra.DoubletFit] = {}
    for nucleus in (1, 2):
        spectrum = spectra.synthesize(
            intensities, sys_obj, nucleus, spec.fwhm, spec.span, spec.points
        )
        spectrum = spectra.add_noise(spectrum, scenario.noise.snr, next(seed_stream))
        try:
            fits[nucleus] = spectra.fit_doublet(
                spectrum, init=_doublet_seed(spectrum, sys_obj, spec.fwhm)
            )
        except spectra.NotConverged as exc:
            fits[nucleus] = exc.fit
    coeffs = None
    if fits[1].converged and fits[2].converged:
        coeffs = spectra.coefficients_from_fits(
            fits[1], fits[2], eq_fits[1], eq_fits[2], label
        )
    return intensities, fits, coeffs


def run_pipeline(scenario: Scenario, out_dir, seed_override: int | None = None) -> str:
    """Full measurement chain over the scenario time grid.

    Requires ``readout = "spectra"`` and a noise block (the snr may be
    the "inf" sentinel). Fit failures are recorded per row and the run
    continues.
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
        spectra.frequency_grid(sys_obj.j_coupling, spec.fwhm, spec.span, spec.points)
    except ValueError as exc:
        raise ConfigError(f"spectrum: {exc}") from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gamma = build_matrix(scenario.rates)

    counter = iter(range(scenario.noise.seed, scenario.noise.seed + 10_000_000))

    eq_fits = {}
    eq_intensities = line_intensities(equilibrium_modes(sys_obj))
    for nucleus in (1, 2):
        eq_spectrum = spectra.synthesize(
            eq_intensities, sys_obj, nucleus, spec.fwhm, spec.span, spec.points
        )
        eq_spectrum = spectra.add_noise(eq_spectrum, scenario.noise.snr, next(counter))
        eq_fits[nucleus] = spectra.fit_doublet(
            eq_spectrum, init=_doublet_seed(eq_spectrum, sys_obj, spec.fwhm)
        )

    row = "%s,%.12g,%d" + ",%.12g" * 7 + ",%d\n"
    lines = []
    for label in scenario.pps_labels:
        for t in scenario.time_grid.times():
            intensities, fits, coeffs = _pipeline_extraction(
                scenario, gamma, label, float(t), eq_fits, counter
            )
            if coeffs is None:
                extracted = (float("nan"),) * 4
            else:
                extracted = (coeffs.a_from_spin2, coeffs.a_from_spin1, coeffs.b, coeffs.c)
            for nucleus in (1, 2):
                fit = fits[nucleus]
                lines.append(
                    row
                    % (
                        label.value,
                        t,
                        nucleus,
                        fit.peaks[0].integral,
                        fit.peaks[1].integral,
                        *extracted,
                        fit.residual_norm,
                        fit.converged,
                    )
                )
    csv_path = out / "pipeline.csv"
    _write_csv(csv_path, "pipeline", scenario_to_dict(scenario), PIPELINE_COLUMNS, lines)
    return str(csv_path)


def _read_csv(path) -> tuple[str, dict, list[str], list[list[str]]]:
    kind = ""
    scenario_doc: dict = {}
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("ppsrelax "):
                    kind = body.split()[1]
                elif body.startswith("scenario:"):
                    scenario_doc = json.loads(body.split(":", 1)[1])
                continue
            if not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if not kind or not header:
        raise SchemaMismatch(f"{path}: not a ppsrelax CSV (missing header)")
    if not rows:
        raise SchemaMismatch(f"{path}: no data rows")
    return kind, scenario_doc, header, rows


def _column(header: list[str], rows: list[list[str]], name: str, path) -> list[str]:
    try:
        idx = header.index(name)
    except ValueError:
        raise SchemaMismatch(f"{path}: missing column {name!r}") from None
    return [row[idx] for row in rows]


def run_report(csv_paths: Sequence[str], stream: TextIO | None = None) -> None:
    """Human-readable summary of simulate (and sweep) CSVs.

    Prints rate-matrix eigenvalues, per-state initial slopes, ordering
    verdicts for the 00 / 11 pair, and the conventions the numbers rest
    on.
    """
    stream = stream if stream is not None else _sys.stdout
    for path in csv_paths:
        kind, doc, header, rows = _read_csv(path)
        print(f"== {kind} report: {doc.get('id', '?')} ({path}) ==", file=stream)
        if kind == "simulate":
            _report_simulate(doc, header, rows, path, stream)
        elif kind == "sweep":
            _report_sweep(doc, header, rows, path, stream)
        elif kind == "pipeline":
            _report_pipeline(doc, header, rows, path, stream)
        else:
            print(f"  (no summary implemented for kind {kind!r})", file=stream)
        print(file=stream)


def _report_simulate(doc, header, rows, path, stream) -> None:
    scenario = parse_scenario(doc)
    gamma = build_matrix(scenario.rates)
    eig = ", ".join(format(v, ".6f") for v in gamma.eigenvalues)
    print(f"rate-matrix eigenvalues (1/s): {eig}", file=stream)

    labels = _column(header, rows, "pps", path)
    t_col = [float(v) for v in _column(header, rows, "t", path)]
    series: dict[str, dict[str, list[float]]] = {}
    for name in ("A", "B", "C"):
        col = [float(v) for v in _column(header, rows, name, path)]
        for label, t, value in zip(labels, t_col, col):
            series.setdefault(label, {}).setdefault(name, []).append(value)
    times: dict[str, list[float]] = {}
    for label, t in zip(labels, t_col):
        times.setdefault(label, []).append(t)

    print("initial slopes (1/s, first sampled interval):", file=stream)
    for label, data in series.items():
        ts = times[label]
        if len(ts) < 2:
            raise SchemaMismatch(f"{path}: need at least two rows per state")
        dt = ts[1] - ts[0]
        slopes = {name: (vals[1] - vals[0]) / dt for name, vals in data.items()}
        print(
            f"  pps {label}: dA/dt={slopes['A']:+.6f} dB/dt={slopes['B']:+.6f} "
            f"dC/dt={slopes['C']:+.6f}",
            file=stream,
        )

    if "00" in series and "11" in series:
        probe_idx = 1
        same_scale = abs(series["00"]["A"][0]) + 1e-30
        delta_a = series["00"]["A"][probe_idx] - series["11"]["A"][probe_idx]
        if abs(delta_a) < 1e-12 * same_scale:
            print("00 vs 11: indistinguishable (no interference rates)", file=stream)
        else:
            checks = [
                ("00 slower than 11 (A)", delta_a > 0),
                (
                    "B growth 00 < 11",
                    series["00"]["B"][probe_idx] < series["11"]["B"][probe_idx],
                ),
                (
                    "C growth 00 < 11",
                    series["00"]["C"][probe_idx] < series["11"]["C"][probe_idx],
                ),
            ]
            t_probe = times["00"][probe_idx]
            auto = {
                label: analysis.closed_form_auto(
                    PpsLabel(label), scenario.rates, scenario.sys, t_probe
                )
                for label in ("00", "11")
            }
            for label, sign in (("00", 1), ("11", -1)):
                data = series[label]
                dev_a = data["A"][probe_idx] - data["A"][0]
                checks.append(
                    (
                        f"A{label} deviation {'above' if sign > 0 else 'below'} auto-only",
                        sign * (dev_a - auto[label].a) > 0,
                    )
                )
                checks.append(
                    (
                        f"B{label} {'below' if sign > 0 else 'above'} auto-only",
                        sign * (auto[label].b - data["B"][probe_idx]) > 0,
                    )
                )
                checks.append(
                    (
                        f"C{label} {'below' if sign > 0 else 'above'} auto-only",
                        sign * (auto[label].c - data["C"][probe_idx]) > 0,
                    )
                )
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


def _report_pipeline(doc, header, rows, path, stream) -> None:
    converged = _column(header, rows, "converged", path)
    residuals = [
        float(v) for v in _column(header, rows, "residual_norm", path)
        if v != "nan"
    ]
    n_ok = sum(1 for v in converged if v == "1")
    print(
        f"measurement rows: {len(rows)}, converged fits: {n_ok}/{len(rows)}",
        file=stream,
    )
    if residuals:
        print(
            f"residual norm: median {np.median(residuals):.4g}, "
            f"max {max(residuals):.4g}",
            file=stream,
        )
    labels = _column(header, rows, "pps", path)
    t_col = _column(header, rows, "t", path)
    a_col = _column(header, rows, "A_proton", path)
    seen = set()
    for label, t, a in zip(labels, t_col, a_col):
        if (label, t) in seen or a == "nan":
            continue
        seen.add((label, t))
        print(f"  pps {label} t={t}: A(proton readout)={float(a):.6g}", file=stream)


def _report_sweep(doc, header, rows, path, stream) -> None:
    values = [float(v) for v in _column(header, rows, "value", path)]
    a_init = [float(v) for v in _column(header, rows, "a_diff_initial", path)]
    a_probe = [float(v) for v in _column(header, rows, "a_diff_probe", path)]
    b_abs = [float(v) for v in _column(header, rows, "b_absdiff_probe", path)]
    c_abs = [float(v) for v in _column(header, rows, "c_absdiff_probe", path)]
    print(
        f"swept {doc.get('sweep', {}).get('parameter', '?')} over"
        f" {len(values)} values",
        file=stream,
    )
    for row in zip(values, a_init, a_probe, b_abs, c_abs):
        print(
            "  value=%s A-diff(initial)=%s A-diff(probe)=%s |B-diff|=%s |C-diff|=%s"
            % tuple(format(v, ".6g") for v in row),
            file=stream,
        )
    increasing = all(b > a for a, b in zip(a_probe, a_probe[1:]))
    print(
        f"  A-difference strictly increasing across sweep: "
        f"{'PASS' if increasing else 'FAIL'}",
        file=stream,
    )
