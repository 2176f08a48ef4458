"""Seeded workload definitions of the ppsrelax benchmark.

Each workload is one CLI command run on one generated JSON config. The
seed draws the rates and the noise seed written into the config; the
grid sizes are part of the workload's definition. The program under test
receives only the config file.
"""

from __future__ import annotations

import math

import numpy as np

LABELS = ("00", "01", "10", "11")

#: Written out in full so that the correctness gate never relies on the
#: package's own defaults.
SYSTEM = {
    "gamma1": 0.9407,
    "gamma2": 1.0,
    "k": 0.5,
    "j_coupling": 5.8,
    "freq1": 470.59e6,
    "freq2": 500.13e6,
}
SPECTRUM = {"fwhm": 1.0, "span": 40.0, "points": 801}
TAU = 0.1

#: Largest joint interference-rate scale of the sweep.
SWEEP_MAX_SCALE = 1.5


def _rates(rng: np.random.Generator) -> dict:
    """Rates for which every matrix of the sweep is positive definite.

    With rho >= 0.28, sigma12 <= 0.03, delta1 <= 0.12 and delta2 <= 0.04,
    each row's off-diagonal mass stays below its diagonal entry up to a
    delta scale of 1.5 (Gershgorin), and tau * lambda_max stays far inside
    the initial-rate window, so no operation warns or fails.
    """
    return {
        "rho1": float(rng.uniform(0.28, 0.40)),
        "rho2": float(rng.uniform(0.28, 0.40)),
        "rho12": float(rng.uniform(0.28, 0.40)),
        "sigma12": float(rng.uniform(0.0, 0.03)),
        "delta1": float(rng.uniform(0.05, 0.12)),
        "delta2": float(rng.uniform(0.01, 0.04)),
    }


def _scenario(seed: int, end: float, step: float, readout: str, snr) -> dict:
    rng = np.random.default_rng(seed)
    rates = _rates(rng)
    return {
        "schema_version": 1,
        "id": f"perfbench-{seed}",
        "system": dict(SYSTEM),
        "rates": rates,
        "pps_labels": list(LABELS),
        "time_grid": {"start": 0.0, "end": end, "step": step},
        "tau": TAU,
        "readout": readout,
        "noise": {"snr": snr, "seed": int(rng.integers(0, 2**31 - 1))},
        "spectrum": dict(SPECTRUM),
    }


def simulate_config(seed: int, end: float = 50.0, step: float = 0.001) -> dict:
    """All four states on a 0-50 s grid at 1 ms (50 001 times), noiseless."""
    return _scenario(seed, end, step, "coefficients", "inf")


def sweep_config(seed: int, n_values: int = 10_000) -> dict:
    """Joint interference-rate scale over ``n_values`` points in [0, 1.5]."""
    doc = _scenario(seed, 5.0, 0.05, "coefficients", "inf")
    doc["sweep"] = {
        "parameter": "delta_scale",
        "values": np.linspace(0.0, SWEEP_MAX_SCALE, n_values).tolist(),
        "probe_time": 0.5,
    }
    return doc


def pipeline_config(seed: int, end: float = 2.5, step: float = 0.005) -> dict:
    """All four states on a 0-2.5 s grid at 5 ms (501 times), snr 100."""
    return _scenario(seed, end, step, "spectra", 100.0)


#: workload name -> (CLI command, config generator)
WORKLOADS = {
    "simulate-long": ("simulate", simulate_config),
    "sweep-wide": ("sweep", sweep_config),
    "pipeline-dense": ("pipeline", pipeline_config),
}


def grid_times(doc: dict) -> np.ndarray:
    """Sample times of a config's time grid (start + i * step)."""
    grid = doc["time_grid"]
    n = int(math.floor((grid["end"] - grid["start"]) / grid["step"] + 1e-9))
    return grid["start"] + np.arange(n + 1) * grid["step"]


def items_per_call(command: str, doc: dict) -> int:
    """Work items one command call completes: CSV rows for simulate, swept
    values for sweep, fitted spectra (one per pipeline.csv row; the two
    equilibrium reference fits are not counted) for pipeline."""
    if command == "sweep":
        return len(doc["sweep"]["values"])
    per_state = len(grid_times(doc)) * (2 if command == "pipeline" else 1)
    return len(doc["pps_labels"]) * per_state
