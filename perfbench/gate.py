"""Correctness gate: checks CSV outputs against an independent numpy reference.

The reference propagates each state in closed form through
``np.linalg.eigh`` of the rate matrix built from the config, so it shares
no code with the package (which uses its own Jacobi solver). Simulate and
sweep values must agree to 1e-9 absolute. Pipeline outputs are noisy, so
they pass when the median error of each recovered coefficient is within
1 % of scale (the tolerance of acceptance criterion 7); bytes are never
compared, because the noise streams and fitted digits may legitimately
change.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import grid_times, items_per_call

ABS_TOL = 1e-9
PIPELINE_REL_TOL = 0.01

#: Mode sign pattern (s1, s2, s12) of each pseudo-pure state.
SIGNS = {"00": (1, 1, 1), "01": (-1, 1, 1), "10": (1, -1, 1), "11": (1, 1, -1)}

SIMULATE_COLUMNS = ["pps", "t", "c1", "c2", "c12", "A", "B", "C", "A_minus_A0"]
SWEEP_COLUMNS = [
    "value",
    "a_diff_initial",
    "a_diff_probe",
    "b_absdiff_probe",
    "c_absdiff_probe",
]
PIPELINE_COLUMNS = [
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


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one output file.

    ``failed_items`` counts the work items the file shows as failed: all
    of them when the check fails, otherwise the pipeline rows that did not
    converge or carry NaN coefficients.
    """

    ok: bool
    failed_items: int
    message: str


def rate_matrices(rates: dict, delta_scale=1.0) -> np.ndarray:
    """Rate matrix of ``rates``; an array of scales gives a stack [N, 3, 3]."""
    scale = np.asarray(delta_scale, dtype=float)
    g = np.zeros(scale.shape + (3, 3))
    g[..., 0, 0] = rates["rho1"]
    g[..., 1, 1] = rates["rho2"]
    g[..., 2, 2] = rates["rho12"]
    g[..., 0, 1] = g[..., 1, 0] = rates["sigma12"]
    g[..., 0, 2] = g[..., 2, 0] = rates["delta1"] * scale
    g[..., 1, 2] = g[..., 2, 1] = rates["delta2"] * scale
    return g


def _start_modes(system: dict, label: str) -> tuple[np.ndarray, np.ndarray]:
    m0 = system["k"] * np.array(SIGNS[label], dtype=float)
    m_inf = np.array([system["gamma1"], system["gamma2"], 0.0])
    return m0, m_inf


def exact_modes(g: np.ndarray, m0: np.ndarray, m_inf: np.ndarray, times) -> np.ndarray:
    """M_inf + V exp(-lambda t) V^T (M0 - M_inf); g may be a stack [N, 3, 3]
    with one time each, or a single matrix with times [T]. Returns [..., 3]."""
    lam, vec = np.linalg.eigh(g)
    times = np.asarray(times, dtype=float)
    weights = np.einsum("...ji,j->...i", vec, m0 - m_inf)
    decay = np.exp(-lam * times[..., None])
    return m_inf + np.einsum("...ij,...j->...i", vec, decay * weights)


def coefficients(modes: np.ndarray, label: str) -> np.ndarray:
    """(a, b, c) along the last axis: a = s12 c12, b = c1 - s1 a, c = c2 - s2 a."""
    s1, s2, s12 = SIGNS[label]
    a = s12 * modes[..., 2]
    return np.stack([a, modes[..., 0] - s1 * a, modes[..., 1] - s2 * a], axis=-1)


def read_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """Header, first column and the numeric remaining columns of a CSV."""
    lines = [
        line for line in Path(path).read_text().splitlines() if line and line[0] != "#"
    ]
    if not lines:
        raise ValueError("no header row")
    header = lines[0].split(",")
    body = lines[1:]
    first = [line.split(",", 1)[0] for line in body]
    numeric = np.loadtxt(
        body, delimiter=",", usecols=range(1, len(header)), ndmin=2, dtype=float
    )
    return header, first, numeric


def _within(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    err = np.abs(got - want)
    if np.all(err <= ABS_TOL):  # NaN fails
        return []
    return [f"{name}: max abs error {float(np.max(err)):.3g} > {ABS_TOL}"]


def _simulate(doc: dict, header, first, numeric) -> list[str]:
    if header != SIMULATE_COLUMNS:
        return [f"header {header} != {SIMULATE_COLUMNS}"]
    times = grid_times(doc)
    labels = doc["pps_labels"]
    if len(first) != len(labels) * len(times):
        return [f"{len(first)} rows, expected {len(labels) * len(times)}"]
    g = rate_matrices(doc["rates"])
    problems = []
    for i, label in enumerate(labels):
        rows = slice(i * len(times), (i + 1) * len(times))
        if any(value != label for value in first[rows]):
            problems.append(f"pps column out of order for state {label}")
        m0, m_inf = _start_modes(doc["system"], label)
        modes = exact_modes(g, m0, m_inf, times)
        abc = coefficients(modes, label)
        want = np.column_stack(
            [times, modes, abc, abc[:, 0] - doc["system"]["k"]]
        )
        for j, name in enumerate(SIMULATE_COLUMNS[1:]):
            problems += _within(f"{label} {name}", numeric[rows, j], want[:, j])
    return problems


def _sweep(doc: dict, header, first, numeric) -> list[str]:
    if header != SWEEP_COLUMNS:
        return [f"header {header} != {SWEEP_COLUMNS}"]
    values = np.array(doc["sweep"]["values"], dtype=float)
    if len(first) != len(values):
        return [f"{len(first)} rows, expected {len(values)}"]
    g = rate_matrices(doc["rates"], values)
    probe = np.full(len(values), doc["sweep"]["probe_time"])
    initial, final = {}, {}
    for label in ("00", "11"):
        m0, m_inf = _start_modes(doc["system"], label)
        linear = m0 - doc["tau"] * (g @ (m0 - m_inf))
        initial[label] = coefficients(linear, label)
        final[label] = coefficients(exact_modes(g, m0, m_inf, probe), label)
    want = np.column_stack(
        [
            values,
            initial["00"][:, 0] - initial["11"][:, 0],
            final["00"][:, 0] - final["11"][:, 0],
            np.abs(final["00"][:, 1] - final["11"][:, 1]),
            np.abs(final["00"][:, 2] - final["11"][:, 2]),
        ]
    )
    got = np.column_stack([np.array(first, dtype=float), numeric])
    problems = []
    for j, name in enumerate(SWEEP_COLUMNS):
        problems += _within(name, got[:, j], want[:, j])
    return problems


def _pipeline(doc: dict, header, first, numeric) -> tuple[list[str], int]:
    if header != PIPELINE_COLUMNS:
        return [f"header {header} != {PIPELINE_COLUMNS}"], 0
    times = grid_times(doc)
    labels = doc["pps_labels"]
    n_rows = len(labels) * len(times) * 2
    if len(first) != n_rows:
        return [f"{len(first)} rows, expected {n_rows}"], 0
    system = doc["system"]
    g = rate_matrices(doc["rates"])
    truth = []
    for label in labels:
        m0, m_inf = _start_modes(system, label)
        truth.append(coefficients(exact_modes(g, m0, m_inf, times), label))
    # two rows (nucleus 1, 2) per (state, time), in config order
    truth = np.repeat(np.concatenate(truth), 2, axis=0)
    expect_labels = [label for label in labels for _ in range(2 * len(times))]
    problems = []
    if first != expect_labels:
        problems.append("pps column out of order")
    problems += _within("t", numeric[:, 0], np.repeat(np.tile(times, len(labels)), 2))
    problems += _within("nucleus", numeric[:, 1], np.tile([1.0, 2.0], n_rows // 2))

    coeffs = numeric[:, 4:8]  # A_proton, A_fluorine, B, C
    usable = (numeric[:, 9] == 1.0) & np.all(np.isfinite(coeffs), axis=1)
    failed = int(n_rows - np.count_nonzero(usable))
    g1, g2, k = system["gamma1"], system["gamma2"], system["k"]
    columns = (
        ("A_proton", truth[:, 0] / g2, k / g2),
        ("A_fluorine", truth[:, 0] / g1, k / g1),
        ("B", truth[:, 1] / g1, k / g1),
        ("C", truth[:, 2] / g2, k / g2),
    )
    if not usable.any():
        problems.append("no converged row with finite coefficients")
    else:
        for j, (name, want, scale) in enumerate(columns):
            err = np.abs(coeffs[usable, j] - want[usable])
            rel = float(np.median(err / np.maximum(np.abs(want[usable]), scale)))
            if not rel <= PIPELINE_REL_TOL:
                problems.append(
                    f"{name}: median error {rel:.3g} of scale > {PIPELINE_REL_TOL}"
                )
    return problems, failed


def check(command: str, doc: dict, path) -> Verdict:
    """Check one output CSV of ``command`` run on config ``doc``."""
    try:
        header, first, numeric = read_csv(path)
        failed = 0
        if command == "simulate":
            problems = _simulate(doc, header, first, numeric)
        elif command == "sweep":
            problems = _sweep(doc, header, first, numeric)
        else:
            problems, failed = _pipeline(doc, header, first, numeric)
    except (OSError, ValueError, IndexError) as exc:
        problems = [f"unreadable output: {exc}"]
    if problems:
        return Verdict(False, items_per_call(command, doc), "; ".join(problems[:3]))
    return Verdict(True, failed, "ok")
