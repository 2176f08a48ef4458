"""Typed scenario configuration: the config dataclasses and their JSON form.

A config is one JSON document with a ``schema_version`` field, read into
frozen dataclasses by one typed walker. Unknown keys anywhere in it are
rejected and every value is checked for type, so a typo in a rate name
fails loudly (ConfigError names the field) rather than silently changing
the physics. Times are in seconds and rates in 1/s throughout.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import types
import typing
import warnings
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Sequence

import numpy as np

from .relaxation import RATE_FIELDS, RelaxationRates, invalid_rates
from .spins import PpsLabel, SpinSystem

__all__ = [
    "ConfigError",
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
]

SCHEMA_VERSION = 1

#: Largest number of time-grid samples a config may ask for (20x the
#: 50 001 of a 1 ms grid over 50 s).
MAX_TIME_SAMPLES = 10**6

#: Largest number of samples a config may give a spectrum (125x the
#: default 801).
MAX_SPECTRUM_POINTS = 100_000

#: Noise seed of the shipped default scenarios.
DEFAULT_SEED = 20240801

#: Interference-rate pairs used by the shipped default sweep. The values
#: are illustrative; they keep delta2 = delta1 / 3 so that the spin-1
#: channel dominates.
DEFAULT_DELTA_LADDER = ((0.0, 0.0), (0.05, 0.0167), (0.10, 0.033), (0.15, 0.05))

READOUTS = ("modes", "coefficients", "spectra")


class ConfigError(ValueError):
    """Configuration is malformed; the message names the offending field."""


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
        """The grid times start + i * step; raises ConfigError when the step
        is too small for two neighbouring times to differ as floats."""
        times = self.start + np.arange(self.samples) * self.step
        if not (times[1:] > times[:-1]).all():
            raise ConfigError(
                f"time_grid step {self.step} is below the float resolution of "
                f"its times; got start={self.start}, end={self.end}"
            )
        return times


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
            try:
                return tuple(map(float, raw))  # all numbers: one pass
            except OverflowError:
                pass  # an integer beyond the float range: name it below
        return tuple(_value(item, v, f"{path}[{i}]") for i, v in enumerate(raw))
    if is_dataclass(kind):
        return _build(kind, raw, path)
    if kind is float:
        if isinstance(raw, str) and raw in sentinels:
            return sentinels[raw]
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            try:
                return float(raw)
            except OverflowError:
                raise ConfigError(f"{path} is beyond the float range") from None
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
    return _load(parse_scenario, path)


def load_sweep(path) -> SweepSpec:
    return _load(parse_sweep, path)


def _load(parse, path):
    """``parse`` of the JSON file ``path``; the warnings it raises (an
    unphysical ``k``) show at ``path``, line 0, echoing no source line."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = _decode_json(fh.read(), path)
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    with warnings.catch_warnings(record=True) as caught:
        parsed = parse(doc)
    for warning in caught:
        warnings.warn_explicit(warning.message, warning.category, str(path), 0)
    return parsed


def _decode_json(text: str, where):
    """The JSON value of ``text``; text Python cannot decode raises ConfigError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError:  # an integer literal over Python's digit limit
        raise ConfigError(f"{where}: a number has too many digits") from None
    except RecursionError:
        raise ConfigError(f"{where}: JSON nested too deeply") from None


def scenario_to_dict(scenario: Scenario) -> dict:
    """The config document of ``scenario``; ``parse_scenario`` reads it back."""
    doc = {"schema_version": SCHEMA_VERSION, **_to_doc(scenario)}
    if scenario.noise is not None and math.isinf(scenario.noise.snr):
        doc["noise"]["snr"] = "inf"
    return doc


def _to_doc(value):
    """JSON form of a config value, the inverse of ``_value``; fields
    holding None are left out, and list floats are copied without a call."""
    if is_dataclass(value):
        return {
            _CONFIG_KEYS.get(f.name, f.name): _to_doc(getattr(value, f.name))
            for f in fields(value)
            if getattr(value, f.name) is not None
        }
    if isinstance(value, tuple):
        return [item if type(item) is float else _to_doc(item) for item in value]
    return value.value if isinstance(value, enum.Enum) else value


def _digest(scenario: Scenario) -> str:
    # imported here, for configs without an id: hashlib (OpenSSL) adds about
    # 3 % to the CLI's import time and 3.8 MB to its resident memory
    import hashlib

    doc = scenario_to_dict(scenario)
    doc["id"] = ""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()[:8]


def default_scenario() -> Scenario:
    """The shipped two-state comparison scenario (interference rates are
    illustrative defaults, delta2 = delta1 / 3)."""
    return Scenario(
        sys=SpinSystem(),
        rates=RelaxationRates(
            rho1=0.3125, rho2=0.33, rho12=0.33, sigma12=0.02, delta1=0.15, delta2=0.05
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
