"""Doublet spectra: synthesis, noise, bi-Lorentzian fitting, extraction.

Each nucleus of the coupled pair shows a two-line multiplet split by the
scalar coupling. In the rotating frame the doublet is centered at 0 Hz:
the line at -J/2 belongs to the partner spin in state 0 and the line at
+J/2 to the partner in state 1. Lines are absorption-mode Lorentzians
parameterized by their integral (not height), because integrals are what
the coefficient extraction consumes and they are robust against
linewidth changes.

The measurement chain mirrors an actual relaxation experiment and works
on batches of spectra that share one frequency grid: ``doublet_amps``
synthesizes the doublets of line-integral pairs (``spins.doublet_pairs``
gives the pairs of mode rows), ``noisy_amps`` adds white Gaussian noise,
``fit_doublets`` fits a bi-Lorentzian model to every spectrum, and
``coefficient_rows`` converts fitted line integrals back into the
pseudo-pure-state coefficients normalized by equilibrium intensities.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .spins import PpsLabel

__all__ = [
    "DoubletFits",
    "GridTooCoarse",
    "NotConverged",
    "InconsistentEquilibrium",
    "lorentzian",
    "frequency_grid",
    "doublet_amps",
    "noisy_amps",
    "estimate_noise_floor",
    "fit_doublets",
    "coefficient_rows",
]

#: Grid spacing must not exceed this fraction of the linewidth.
GRID_SPACING_FACTOR = 0.1

#: Grid must cover the line centers by this many linewidths.
GRID_COVER_FACTOR = 5.0

#: Equilibrium doublet asymmetry accepted by coefficient extraction.
EQ_ASYMMETRY_LIMIT = 0.05

#: Fewest grid samples a spectrum must have to be fitted.
FIT_MIN_POINTS = 50

FIT_MAX_ITER = 200
FIT_RTOL = 1e-10

#: Spectra whose normal equations are built at once: the P + 1 planes of
#: 32 spectra of 801 points (1.2 MB) stay inside a 2 MB L2 cache.
NORMAL_EQUATION_ROWS = 32


class GridTooCoarse(ValueError):
    """Frequency grid spacing exceeds fwhm/10."""


class NotConverged(RuntimeError):
    """A doublet fit the run cannot do without did not converge."""


class InconsistentEquilibrium(ValueError):
    """Equilibrium doublet lines differ by more than the accepted asymmetry."""


def lorentzian(freqs: np.ndarray, center: float, integral: float, fwhm: float) -> np.ndarray:
    """Absorption Lorentzian with unit-normalized area.

    Peak height is 2*integral / (pi*fwhm).
    """
    half = fwhm / 2.0
    return (integral / math.pi) * half / ((freqs - center) ** 2 + half ** 2)


def frequency_grid(j_coupling: float, fwhm: float, span: float, points: int) -> np.ndarray:
    """The ``points`` sample frequencies across ``span`` Hz around 0 Hz of a
    doublet split by ``j_coupling`` Hz.

    Raises ValueError unless the grid covers both line centers by 5 fwhm,
    and GridTooCoarse when its spacing exceeds fwhm/10.
    """
    if not fwhm > 0:
        raise ValueError(f"fwhm must be > 0, got {fwhm}")
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    half_span = span / 2.0
    needed = j_coupling / 2.0 + GRID_COVER_FACTOR * fwhm
    if not half_span >= needed:
        raise ValueError(
            f"grid half-span {half_span} Hz does not cover line centers "
            f"+- 5 fwhm ({needed} Hz)"
        )
    freqs = np.linspace(-half_span, half_span, points)
    spacing = freqs[1] - freqs[0]
    if spacing > fwhm * GRID_SPACING_FACTOR:
        raise GridTooCoarse(
            f"grid spacing {spacing:.4g} Hz exceeds fwhm/10 = "
            f"{fwhm * GRID_SPACING_FACTOR:.4g} Hz"
        )
    return freqs


def doublet_amps(freqs: np.ndarray, pairs, j_coupling: float, fwhm: float) -> np.ndarray:
    """Doublet amplitudes [..., N] on the grid ``freqs`` [N] for the line
    integral pairs [..., 2]: the 0-line at -J/2, the 1-line at +J/2."""
    pairs = np.asarray(pairs, dtype=float)[..., None]
    amps = lorentzian(freqs, -j_coupling / 2.0, pairs[..., 0, :], fwhm)
    amps += lorentzian(freqs, +j_coupling / 2.0, pairs[..., 1, :], fwhm)
    return amps


def noisy_amps(amps: np.ndarray, snr: float, seeds) -> np.ndarray:
    """Adds white Gaussian noise with sd = max|row| / snr to the spectra
    ``amps`` [S, N] in place and returns ``amps``; row s draws its noise
    from ``default_rng(seeds[s])`` (an int or a sequence of ints), and a
    ``seeds`` of another length than S raises ValueError.
    ``snr=math.inf`` leaves ``amps`` as it is."""
    if not snr > 0:
        raise ValueError(f"snr must be > 0, got {snr}")
    if math.isinf(snr):
        return amps
    # max|row| without an |amps| temporary the size of the batch
    sd = np.maximum(amps.max(axis=-1), -amps.min(axis=-1)) / snr
    noise = np.empty(amps.shape[-1])
    for row, seed, scale in zip(amps, seeds, sd, strict=True):
        np.random.default_rng(seed).standard_normal(out=noise)
        noise *= scale
        row += noise
    return amps


def estimate_noise_floor(amps: np.ndarray) -> float | np.ndarray:
    """Robust noise estimate from the median absolute successive
    difference (the signal contributes only smooth, mostly small diffs);
    one value per spectrum of ``amps`` [..., N]."""
    diffs = np.diff(amps)
    np.abs(diffs, out=diffs)
    return 1.4826 * np.median(diffs, axis=-1, overwrite_input=True) / math.sqrt(2.0)


class DoubletFits(NamedTuple):
    """Fits of a batch of spectra sampled on one grid; row s belongs to
    spectrum s.

    ``peaks`` [S, 2, 3] holds (center, integral, fwhm) of both lines in
    ascending center order; the other fields are [S] arrays: the RMS
    residual, the Levenberg-Marquardt iterations taken, whether the fit
    converged, and whether a line is consistent with zero.
    """

    peaks: np.ndarray
    residual_norm: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    low_confidence: np.ndarray


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of ``a`` and ``b`` [S, K]."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _solve_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions x[s] of a[s] x = b[s] for a [S, P, P] and b [S, P], and
    a per-row flag that is False (x zero) where a[s] is singular."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    # one singular system fails the whole stacked call: isolate it
    x = np.zeros_like(b)
    solved = np.ones(len(b), dtype=bool)
    for row in range(len(b)):
        try:
            x[row] = np.linalg.solve(a[row], b[row])
        except np.linalg.LinAlgError:
            solved[row] = False
    return x, solved


def _normal_equations(
    freqs: np.ndarray,
    amps: np.ndarray,
    rows: np.ndarray,
    params: np.ndarray,
    work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared residual [S], gradient J^T r [S, P] and Gauss-Newton matrix
    J^T J [S, P, P] of the bi-Lorentzian rows ``params`` [S, P] against
    the spectra ``amps[rows]`` [S, N], all read off batched Gram products.

    Parameter layout: (c_a, c_b, i_a, i_b, w), one width shared by both
    lines. The P = 5 analytic Jacobian rows and the residual of at most
    C rows at a time are written to the P + 1 planes of ``work``
    [P + 1, C, N], so every pass over the data is a contiguous write into
    one buffer, whatever S is.
    """
    size, p = params.shape
    depth = work.shape[1]
    gram = np.empty((size, p + 1, p + 1))
    scratch = np.empty(work.shape[1:])
    for start in range(0, size, depth):
        chunk = params[start : start + depth]
        a, temp = work[:, : len(chunk)], scratch[: len(chunk)]
        # twice the residual until the end, so that a line adds its 2 L,
        # which its center derivative needs anyway
        twice = np.take(amps, rows[start : start + depth], axis=0, out=a[p], mode="clip")
        twice *= -2.0
        half = chunk[:, 4, None] / 2.0
        for line in (0, 1):
            integral = chunk[:, 2 + line, None]
            diff = np.subtract(freqs, chunk[:, line, None], out=a[line])
            np.multiply(diff, diff, out=temp)
            temp += half * half
            np.reciprocal(temp, out=temp)  # R = 1 / ((f - c)^2 + h^2)
            d_integral = np.multiply(temp, half / math.pi, out=a[2 + line])
            diff *= temp
            np.multiply(d_integral, 2.0 * integral, out=temp)  # 2 L
            twice += temp
            diff *= temp  # dL/dc = 2 L (f - c) R
            # dL/dw = dL/dI (I / (2 h) - pi I dL/dI)
            np.multiply(d_integral, -math.pi * integral, out=temp)
            temp += integral / (2.0 * half)
            if line:
                temp *= d_integral
                a[4] += temp
            else:
                np.multiply(temp, d_integral, out=a[4])
        twice *= 0.5
        by_row = a.transpose(1, 0, 2)
        np.matmul(by_row, by_row.swapaxes(1, 2), out=gram[start : start + depth])
    return gram[:, p, p], gram[:, :p, p], gram[:, :p, :p]


def _levenberg_marquardt(
    freqs: np.ndarray,
    amps: np.ndarray,
    params: np.ndarray,
    center_box: tuple[np.ndarray, np.ndarray],
    min_width: float,
    max_iter: int,
    rtol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Gauss-Newton iteration on every row of ``params`` [S, 5] at
    once, each line center held in ``center_box`` (lower and upper bounds
    [2]); returns the final (params, squared residual, iterations,
    converged) per row.

    Each row keeps its own diagonal damping, gain-ratio schedule and
    convergence state; a row that converges or stalls leaves the working
    set, so the others iterate on without it. Only the normal equations
    of the current parameters are kept, never their Jacobian.
    """
    rows = len(params)
    final = np.empty_like(params)
    final_ssr = np.empty(rows)
    final_iterations = np.zeros(rows, dtype=int)
    final_converged = np.zeros(rows, dtype=bool)
    live = np.arange(rows)  # output row of each working row

    # one work buffer for the whole iteration, NORMAL_EQUATION_ROWS rows
    # deep: a fresh one per step costs more in page faults than it takes
    # to fill, and a deeper one falls out of cache between passes
    depth = min(max(rows, 1), NORMAL_EQUATION_ROWS)
    work = np.empty((params.shape[1] + 1, depth, freqs.size))
    ssr, gradient, hessian = _normal_equations(freqs, amps, live, params, work)
    damping = np.full(rows, 1e-3)
    escalation = np.full(rows, 2.0)
    diagonal = np.arange(params.shape[1])
    iteration = 0
    for iteration in range(1, max_iter + 1):
        diag = hessian[:, diagonal, diagonal]
        diag[diag <= 0] = 1e-30
        damped = hessian.copy()
        damped[:, diagonal, diagonal] += damping[:, None] * diag
        step, solved = _solve_rows(damped, -gradient)
        trial = params + step
        trial[:, 4] = np.maximum(trial[:, 4], min_width)
        trial[:, :2] = np.clip(trial[:, :2], *center_box)
        trial_ssr, trial_gradient, trial_hessian = _normal_equations(
            freqs, amps, live, trial, work
        )
        predicted = _rowdot(step, damping[:, None] * diag * step - gradient)
        accept = solved & (trial_ssr < ssr) & (predicted > 0)

        improvement = ssr - trial_ssr
        params[accept] = trial[accept]
        ssr[accept] = trial_ssr[accept]
        gradient[accept] = trial_gradient[accept]
        hessian[accept] = trial_hessian[accept]
        gain = (improvement[accept] / predicted[accept]).tolist()
        # Python's float power: numpy's cube rounds differently now and then
        damping[accept] *= [max(1.0 / 3.0, 1.0 - (2.0 * g - 1.0) ** 3) for g in gain]
        escalation[accept] = 2.0
        done = accept & (improvement <= rtol * np.maximum(ssr, 1e-300))

        reject = ~accept
        damping[reject] *= escalation[reject]
        escalation[reject] *= 2.0
        # steps this damped no longer change the residual: stalled at a
        # minimum (a singular system only escalates)
        done |= reject & solved & (damping > 1e14)
        if done.any():
            out = live[done]
            final[out] = params[done]
            final_ssr[out] = ssr[done]
            final_iterations[out] = iteration
            final_converged[out] = True
            keep = ~done
            live, params, ssr, gradient, hessian = (
                live[keep], params[keep], ssr[keep], gradient[keep], hessian[keep]
            )
            damping, escalation = damping[keep], escalation[keep]
        if not live.size:
            break
    final[live] = params
    final_ssr[live] = ssr
    final_iterations[live] = iteration
    return final, final_ssr, final_iterations, final_converged


def fit_doublets(
    freqs: np.ndarray,
    amps: np.ndarray,
    j_coupling: float,
    fwhm: float,
    *,
    max_iter: int = FIT_MAX_ITER,
    rtol: float = FIT_RTOL,
) -> DoubletFits:
    """Bi-Lorentzian fits of the doublets split by ``j_coupling`` Hz in the
    spectra ``amps`` [S, N] sampled on the uniform grid ``freqs`` [N], all
    in one Levenberg-Marquardt iteration. A grid that is not strictly
    increasing and uniform raises ValueError.

    Each fit starts at the known doublet geometry: lines at -J/2 and +J/2
    with integrals read off the sampled amplitude at each center, and one
    width ``fwhm`` shared by both lines. The geometry fixes line identity:
    each component stays on its own side, inside a box of J/2 (at least
    two grid spacings) around its start, so a near-zero line cannot drift
    across its partner and swap the assignment. The damping follows the
    gain-ratio schedule (rejected steps escalate it geometrically, as does
    a singular damped system), and a spectrum converges when an accepted
    step changes its squared residual by less than ``rtol`` relatively, or
    when damping escalation shows the iteration is stalled at a minimum.
    Spectra that exhaust ``max_iter`` are returned with ``converged``
    False and their best parameters, as are spectra whose residual is not
    finite (a NaN or inf sample). A row's result does not depend on the
    other rows of the batch. The normal equations are built
    NORMAL_EQUATION_ROWS spectra at a time in one fixed buffer, so beyond
    ``amps`` the working memory does not grow with S.
    """
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size < FIT_MIN_POINTS:
        raise ValueError(
            f"spectrum too short to fit ({freqs.size} < {FIT_MIN_POINTS} samples)"
        )
    steps = np.diff(freqs)
    if freqs.ndim != 1 or not (steps.min() > 0 and np.ptp(steps) <= 1e-9 * steps.mean()):
        raise ValueError("freqs must be strictly increasing and uniform")
    amps = np.asarray(amps, dtype=float)
    if amps.ndim != 2 or amps.shape[1] != freqs.size:
        raise ValueError(f"need amps [S, {freqs.size}], got {amps.shape}")
    centers = np.array([-j_coupling / 2.0, j_coupling / 2.0])
    nearest = np.abs(freqs - centers[:, None]).argmin(axis=1)
    params = np.empty((len(amps), 5))
    params[:, :2] = centers
    params[:, 2:4] = amps[:, nearest] * math.pi * fwhm / 2.0
    params[:, 4] = fwhm
    spacing = float(freqs[1] - freqs[0])
    half_sep = max(j_coupling / 2.0, 2.0 * spacing)

    params, ssr, iterations, converged = _levenberg_marquardt(
        freqs, amps, params, (centers - half_sep, centers + half_sep), 2.0 * spacing, max_iter, rtol
    )
    widths = params[:, 4:5].repeat(2, axis=1)
    peaks = np.stack((params[:, 0:2], params[:, 2:4], widths), axis=-1)
    swapped = peaks[:, 1, 0] < peaks[:, 0, 0]
    peaks[swapped] = peaks[swapped, ::-1]
    # an absolute floor of one unit roundoff: a flat spectrum has a noise
    # floor of 0, yet its fitted integrals are tiny, not exactly 0
    floor = np.maximum(estimate_noise_floor(amps), np.finfo(float).eps)
    low_confidence = (
        np.abs(peaks[:, :, 1]) < 3.0 * floor[:, None] * math.pi * peaks[:, :, 2] / 2.0
    ).any(axis=1)
    return DoubletFits(
        peaks=peaks,
        residual_norm=np.sqrt(ssr / freqs.size),
        iterations=iterations,
        converged=converged & np.isfinite(ssr),
        low_confidence=low_confidence,
    )


def coefficient_rows(lines1, lines2, eq1, eq2, label: PpsLabel) -> np.ndarray:
    """Pseudo-pure coefficients (a_from_spin2, a_from_spin1, b, c) [..., 4]
    from fitted line integrals.

    ``lines1`` [..., 2] holds (f0, f1) of nucleus 1 and ``lines2``
    (h0, h1) of nucleus 2; ``eq1``/``eq2`` [2] are the equilibrium pairs
    used for normalization. Raises InconsistentEquilibrium when an
    equilibrium doublet is asymmetric beyond 5%.
    """
    for name, eq in (("nucleus 1", eq1), ("nucleus 2", eq2)):
        line0, line1 = (float(v) for v in eq)
        mean = (line0 + line1) / 2.0
        if mean == 0 or not abs(line0 - line1) / abs(mean) <= EQ_ASYMMETRY_LIMIT:
            raise InconsistentEquilibrium(
                f"{name} equilibrium doublet asymmetry exceeds "
                f"{EQ_ASYMMETRY_LIMIT:.0%}: {line0:.6g} vs {line1:.6g}"
            )
    lines1, lines2 = np.asarray(lines1, dtype=float), np.asarray(lines2, dtype=float)
    f0, f1 = lines1[..., 0], lines1[..., 1]
    h0, h1 = lines2[..., 0], lines2[..., 1]
    denom_f = float(eq1[0]) + float(eq1[1])
    denom_h = float(eq2[0]) + float(eq2[1])
    s = label.sign_pattern
    return np.stack(
        (
            s.s12 * (h0 - h1) / denom_h,
            s.s12 * (f0 - f1) / denom_f,
            (f0 + f1 - s.s1 * s.s12 * (f0 - f1)) / denom_f,
            (h0 + h1 - s.s2 * s.s12 * (h0 - h1)) / denom_h,
        ),
        axis=-1,
    )

