"""Bounded, human-readable summaries of the CSVs the runners write.

``run_report`` reads each CSV through ``run._read_csv`` and prints a
summary whose length does not grow with the file: eigenvalues, initial
slopes and 00 / 11 ordering verdicts for simulate; the ends and extremes
of a sweep; fit counts and each state's first and last extracted A for a
pipeline.
"""

from __future__ import annotations

import sys
from typing import Sequence, TextIO

import numpy as np

from . import analysis
from .relaxation import build_matrix
from .run import SWEEP_COLUMNS, SchemaMismatch, _read_csv
from .scenario import ConfigError, parse_scenario
from .spins import PpsLabel

__all__ = ["run_report"]


def _column(columns: np.ndarray, name: str, path) -> np.ndarray:
    if name not in columns.dtype.names:
        raise SchemaMismatch(f"{path}: missing column {name!r}")
    return columns[name]


def _first_appearance(labels: np.ndarray) -> list[str]:
    """The distinct values of ``labels`` in the order they first appear,
    by one scan per state label: no sorted copy of the column is made."""
    scans = ((label.value, labels == label.value) for label in PpsLabel)
    first = {value: int(hits.argmax()) for value, hits in scans if hits.any()}
    return sorted(first, key=first.get)


def run_report(csv_paths: Sequence[str], stream: TextIO | None = None) -> None:
    """Human-readable summary of simulate, sweep and pipeline CSVs.

    Prints rate-matrix eigenvalues, per-state initial slopes, ordering
    verdicts for the 00 / 11 pair, and the conventions the numbers rest
    on.
    """
    stream = stream if stream is not None else sys.stdout
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
    n_rows, n_ok = len(converged), int(np.count_nonzero(converged == 1))
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
            print(f"  pps {label} t={t:.12g}: A(proton readout)={a:.6g}", file=stream)


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
