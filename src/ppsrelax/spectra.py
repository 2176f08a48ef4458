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
gives the pairs of mode rows), ``fit_doublets`` fits a bi-Lorentzian
model to every spectrum, ``fit_noisy_doublets`` synthesizes, adds white
Gaussian noise keyed by each spectrum's identity and fits in one call,
and ``coefficient_rows`` converts fitted line integrals back into the
pseudo-pure-state coefficients normalized by equilibrium intensities.
"""

from __future__ import annotations

import math
import operator
import threading
from typing import NamedTuple, Sequence

import numpy as np

from . import _threads
from .relaxation import InconsistentEquilibrium, NotConverged
from .spins import PpsLabel, mode_rows

__all__ = [
    "DoubletFits",
    "GridTooCoarse",
    "NotConverged",
    "InconsistentEquilibrium",
    "lorentzian",
    "frequency_grid",
    "doublet_amps",
    "fit_doublets",
    "fit_noisy_doublets",
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

#: Steps a fit may evaluate; read when a fit runs.
FIT_MAX_ITER = 200

#: The change of chi^2 within which a fit converges, read when a fit
#: runs: chi^2 is its squared residual ssr in units of the fit's own
#: noise variance ssr / (N - 5), so a row stops once a step changes its
#: ssr by at most FIT_DCHI2 / (N - 5) relatively. A noiseless row reaches
#: the rounding floor all the same, as each of its steps removes nearly
#: all of its ssr. At 1e-3 the fits of the perfbench pipeline configs of
#: seeds 1-13 (snr 100) took 43 % fewer steps than at a relative change
#: of 1e-10, the slowest 36, not 89; every row still converged, and none
#: whose lines both stand above the noise ended more than 0.002 in chi^2
#: above its 1e-10 fit. At 1e-2 they took 59 % fewer, but moved such rows
#: by up to 0.014 in chi^2 and rows with a line at the noise by up to 8.3.
FIT_DCHI2 = 1e-3

#: Spectra whose normal equations are built at once, and whose noise is
#: drawn into one block: the P + 1 planes of 32 spectra of 801 points
#: (1.2 MB) stay inside a 2 MB L2 cache.
NORMAL_EQUATION_ROWS = 32

#: Grid samples of the spectra fitted in one batch: 128 spectra of the
#: default 801 points, whose noise is drawn and whose normal equations are
#: built NORMAL_EQUATION_ROWS at a time (the first ones from basis
#: functions the batch shares). A fit thread takes the next batch whenever
#: it is free.
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


class GridTooCoarse(ValueError):
    """Frequency grid spacing exceeds fwhm/10."""


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


def _add_noise(amps: np.ndarray, snr: float, words: np.ndarray) -> np.ndarray:
    """Adds white Gaussian noise of sd max|row| / ``snr`` (finite) to the
    spectra ``amps`` [S, N] in place and returns ``amps``: row s gets sd
    times the normals of the PCG64 seeded with the SeedSequence words
    ``words[s]`` of ``_keyed_seed_words``, which PCG64 reads raw, so
    ``words`` must be C-contiguous."""
    # max|row| without an |amps| temporary the size of the batch
    sd = np.maximum(amps.max(axis=-1), -amps.min(axis=-1)) / snr
    # each row's stream is drawn into a block of rows, which is scaled
    # and added in one call each
    block = np.empty((min(max(len(amps), 1), NORMAL_EQUATION_ROWS), amps.shape[-1]))
    for start in range(0, len(amps), len(block)):
        rows = amps[start : start + len(block)]
        noise = block[: len(rows)]
        for row, seeded in zip(noise, words[start : start + len(rows)]):
            np.random.Generator(np.random.PCG64(_SeedWords(seeded))).standard_normal(out=row)
        noise *= sd[start : start + len(rows), None]
        rows += noise
    return amps


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """The SeedSequence whose state is the words [4] it holds, so that PCG64
    seeds itself from a row of ``_keyed_seed_words`` as from the row's SeedSequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


# SeedSequence's constants (numpy bit_generator.pyx), Python ints: numpy scalars warn on overflow
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _keyed_seed_words(seed: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, *key]).generate_state(4, np.uint64)`` of each
    row of the int ``keys`` [K, W], as C-contiguous uint64 rows [K, 4], for
    a non-negative ``seed`` and key entries below 2^32: numpy's
    ``mix_entropy`` and ``generate_state`` (bit_generator.pyx) step for
    step, on a uint32 array [K] for each uint32 of its C code, so that all
    K seeds are hashed at once (one list at a time, the 4 010 of
    pipeline-dense took 8-10 ms, not 0.3-0.4, and 0.5 MB more peak RSS)."""
    seed, size = operator.index(seed), len(keys)
    # the entropy words: those of seed, least significant first, then the key's
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(size, word, np.uint32) for word in words] + list(keys.T.astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray, mult: int) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_L * x - _MIX_R * y
        return result ^ result >> 16

    # mix_entropy: 4 words (0 past the entropy) fill the pool, each pool
    # word is mixed into every other, then each further word into all four
    entropy += [np.zeros(size, np.uint32)] * (4 - len(entropy))
    pool = [hashmix(word, _MULT_A) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src], _MULT_A))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word, _MULT_A))
    # generate_state(4, np.uint64): 8 words, cycling through the pool
    hash_const = _INIT_B
    state = np.stack([hashmix(pool[i % 4], _MULT_B) for i in range(8)], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class DoubletFits(NamedTuple):
    """Fits of a batch of spectra sampled on one grid; row s belongs to
    spectrum s.

    ``peaks`` [S, 2, 3] holds (center, integral, fwhm) of both lines in
    ascending center order; the other fields are [S] arrays: the RMS
    residual, the Levenberg-Marquardt steps evaluated, whether the fit
    converged, and whether a line's peak is below 3 RMS residuals (True
    as well wherever the residual is not finite).
    """

    peaks: np.ndarray
    residual_norm: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    low_confidence: np.ndarray


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
    one buffer, whatever S is. Each pass computes both lines at once, on
    the plane pairs of the center and integral derivatives.
    """
    size, p = params.shape
    depth = work.shape[1]
    gram = np.empty((size, p + 1, p + 1))
    scratch = np.empty(work.shape[1:])
    for start in range(0, size, depth):
        chunk = params[start : start + depth]
        a, twice = work[:, : len(chunk)], scratch[: len(chunk)]
        # [2, C, N] plane pairs, one plane per line, and [2, C, 1] per-line
        # constants; the width and residual planes are the pair's scratch
        # until the end
        diff, d_integral, pair = a[0:2], a[2:4], a[4:6]
        integral = chunk[:, 2:4].T[:, :, None]
        half = chunk[:, 4, None] / 2.0
        np.subtract(freqs, chunk[:, :2].T[:, :, None], out=diff)
        np.multiply(diff, diff, out=d_integral)
        d_integral += half * half
        np.reciprocal(d_integral, out=d_integral)  # R = 1 / ((f - c)^2 + h^2)
        diff *= d_integral
        d_integral *= half / math.pi
        np.multiply(d_integral, 2.0 * integral, out=pair)  # 2 L
        diff *= pair  # dL/dc = 2 L (f - c) R
        # twice the residual until the end: each line adds its 2 L
        np.take(amps, rows[start : start + depth], axis=0, out=twice, mode="clip")
        twice *= -2.0
        twice += pair[0]
        twice += pair[1]
        # dL/dw = dL/dI (I / (2 h) - pi I dL/dI), summed over both lines
        np.multiply(d_integral, -math.pi * integral, out=pair)
        pair += integral / (2.0 * half)
        pair *= d_integral
        np.add(pair[0], pair[1], out=a[4])
        np.multiply(twice, 0.5, out=a[p])
        by_row = a.transpose(1, 0, 2)
        np.matmul(by_row, by_row.swapaxes(1, 2), out=gram[start : start + depth])
    return gram[:, p, p], gram[:, :p, p], gram[:, :p, :p]


def _start_equations(
    freqs: np.ndarray,
    amps: np.ndarray,
    centers: np.ndarray,
    fwhm: float,
    integrals: np.ndarray,
    work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The normal equations of ``_normal_equations`` for the spectra
    ``amps`` [S, N], each fitted with lines at ``centers`` [2] of one
    width ``fwhm`` and its own ``integrals`` [S, 2]: the start of a fit.

    At a shared geometry row s's Jacobian is J_s = B^T T_s. B [6, N]
    holds per line l the unit-integral line u_l = dL/dI_l, its center
    derivative per unit integral v_l = 2 u_l (f - c_l) R_l and its width
    derivative per unit integral z_l = u_l (1 / (2 h) - pi u_l); T_s
    [6, P] puts I_l v_l on c_l, u_l on I_l and I_0 z_0 + I_1 z_1 on w. So
    J^T J = T^T (B B^T) T, with B B^T formed once, and J^T r = T^T (B r).
    Only the residual r = I_0 u_0 + I_1 u_1 - y passes over the data, in
    the first planes of ``work`` [P + 1, C, N], C rows at a time; r.r is
    summed from it, never expanded into Gram terms, in which a noiseless
    row's 1e-30 would cancel away. Every per-row product is a product of
    that row alone.
    """
    size = len(integrals)
    half = fwhm / 2.0
    diff = freqs - centers[:, None]
    recip = 1.0 / (diff * diff + half * half)
    unit = recip * (half / math.pi)
    # rows u_0, u_1, v_0, v_1, z_0, z_1
    basis = np.concatenate(
        (unit, 2.0 * unit * diff * recip, unit * (1.0 / (2.0 * half) - math.pi * unit))
    )
    lines = np.arange(2)
    jacobian_map = np.zeros((size, 6, 5))
    jacobian_map[:, 2 + lines, lines] = integrals
    jacobian_map[:, lines, 2 + lines] = 1.0
    jacobian_map[:, 4 + lines, 4] = integrals
    projection, ssr = np.empty((size, 6, 1)), np.empty((size, 1, 1))
    depth = work.shape[1]
    for start in range(0, size, depth):
        stop = min(start + depth, size)
        residual, model = work[0, : stop - start], work[1:3, : stop - start]
        np.multiply(integrals[start:stop].T[:, :, None], unit[:, None, :], out=model)
        np.add(model[0], model[1], out=residual)
        residual -= amps[start:stop]
        column = residual[:, :, None]
        np.matmul(basis, column, out=projection[start:stop])
        np.matmul(residual[:, None, :], column, out=ssr[start:stop])
    transposed = jacobian_map.swapaxes(1, 2)
    hessian = transposed @ (basis @ basis.T) @ jacobian_map
    return ssr[:, 0, 0], (transposed @ projection)[:, :, 0], hessian


class _FitSetup(NamedTuple):
    """What every fit of one doublet on one grid shares: the grid
    ``freqs`` [N], the start centers [2] and width, the box (lower and
    upper bounds [2]) that holds each line center, and the least width."""

    freqs: np.ndarray
    centers: np.ndarray
    fwhm: float
    box: tuple[np.ndarray, np.ndarray]
    min_width: float


class _Live(NamedTuple):
    """The rows of a Levenberg-Marquardt iteration in progress, one per
    spectrum, each field [L, ...]: the output row, the row of the spectra
    it fits, its parameters [L, 5] (``_normal_equations`` layout) with
    their squared residual, gradient and Gauss-Newton matrix, its damping
    and escalation factor, and the steps it has evaluated."""

    index: np.ndarray
    rows: np.ndarray
    params: np.ndarray
    ssr: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray
    damping: np.ndarray
    escalation: np.ndarray
    steps: np.ndarray


#: Spectra whose largest |amplitude| lies outside this band are fitted
#: scaled into [0.5, 1) by a power of two: the squared residual of a
#: spectrum of 1e-200 underflows and stalls its fit at the start, and one
#: of 1e160 overflows the Gram products. Scaling by 2^e is exact both ways.
_UNSCALED_BAND = (2.0**-300, 2.0**300)


def _fit_setup(freqs, j_coupling: float, fwhm: float) -> _FitSetup:
    """The ``_FitSetup`` of ``fit_doublets``' arguments, or ValueError
    naming the one it cannot fit with."""
    if not (math.isfinite(fwhm) and fwhm > 0):
        raise ValueError(f"fwhm must be finite and > 0, got {fwhm!r}")
    if not math.isfinite(j_coupling):
        raise ValueError(f"j_coupling must be finite, got {j_coupling!r}")
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size < FIT_MIN_POINTS:
        raise ValueError(
            f"spectrum too short to fit ({freqs.size} < {FIT_MIN_POINTS} samples)"
        )
    steps = np.diff(freqs)
    if freqs.ndim != 1 or not (steps.min() > 0 and np.ptp(steps) <= 1e-9 * steps.mean()):
        raise ValueError("freqs must be strictly increasing and uniform")
    centers = np.array([-j_coupling / 2.0, j_coupling / 2.0])
    spacing = float(freqs[1] - freqs[0])
    half_sep = max(j_coupling / 2.0, 2.0 * spacing)
    box = (centers - half_sep, centers + half_sep)
    return _FitSetup(freqs, centers, fwhm, box, 2.0 * spacing)


def _work_buffer(rows: int, points: int) -> np.ndarray:
    """The [P + 1, C, N] buffer of ``_normal_equations`` for ``rows``
    spectra, at most NORMAL_EQUATION_ROWS deep: a fresh one per step costs
    more in page faults than it takes to fill, and a deeper one falls out
    of cache between passes."""
    return np.empty((6, min(max(rows, 1), NORMAL_EQUATION_ROWS), points))


def _fit_batch(
    setup: _FitSetup, amps: np.ndarray, fitted: tuple, start: int, handoff: int
) -> tuple[_Live, np.ndarray]:
    """Starts the fits of the spectra ``amps`` [S, N], whose outcomes are
    the rows from ``start`` on of ``fitted``, iterates them until at most
    ``handoff`` rows are live (0: until every row is done) and returns
    those and a copy of their spectra [L, N], row for row.

    Every row starts at the doublet geometry, so the first normal
    equations of the batch come from ``_start_equations``.
    """
    size = len(amps)
    peak = np.maximum(amps.max(axis=1), -amps.min(axis=1))
    scaled = (peak < _UNSCALED_BAND[0]) | (peak > _UNSCALED_BAND[1])
    exponent = np.where(scaled, np.frexp(peak)[1], 0)
    if exponent.any():  # never for a spectrum of 0, NaN or inf: their exponent is 0
        amps = np.ldexp(amps, -exponent[:, None])
    fitted[-1][start : start + size] = exponent
    nearest = np.abs(setup.freqs - setup.centers[:, None]).argmin(axis=1)
    integrals = amps[:, nearest] * math.pi * setup.fwhm / 2.0
    params = np.empty((size, 5))
    params[:, :2], params[:, 2:4], params[:, 4] = setup.centers, integrals, setup.fwhm
    work = _work_buffer(size, setup.freqs.size)
    equations = _start_equations(setup.freqs, amps, setup.centers, setup.fwhm, integrals, work)
    rows = np.arange(size)
    damping, escalation = np.full(size, 1e-3), np.full(size, 2.0)
    live = _Live(start + rows, rows, params, *equations, damping, escalation, np.zeros_like(rows))
    live = _levenberg_marquardt(setup, amps, live, fitted, work, handoff)
    return live, amps[live.rows]


def _fit_pool(setup: _FitSetup, pool: Sequence[tuple[_Live, np.ndarray]], fitted: tuple) -> None:
    """Finishes the stragglers ``pool`` of ``_fit_batch`` in one iteration."""
    size = sum(len(amps) for _, amps in pool)
    if size:
        live = _Live(*map(np.concatenate, zip(*(live for live, _ in pool))))
        amps = np.concatenate([amps for _, amps in pool])
        live = live._replace(rows=np.arange(size))
        _levenberg_marquardt(setup, amps, live, fitted, _work_buffer(size, setup.freqs.size), 0)


def _levenberg_marquardt(
    setup: _FitSetup,
    amps: np.ndarray,
    live: _Live,
    fitted: tuple,
    work: np.ndarray,
    handoff: int,
) -> _Live:
    """Damped Gauss-Newton iteration on the rows ``live`` of the spectra
    ``amps`` [S, N] at once, until at most ``handoff`` rows are live: each
    row that finishes is written into ``fitted`` at its output row, and
    the rows still live are returned, ready to be resumed by a later call,
    alone or among other rows.

    Each row keeps its own damping, gain-ratio schedule, convergence state
    and step count, so its steps do not depend on the rows iterated with
    it. A row converges when its accepted step reduced its squared
    residual ssr, or its next step predicts a reduction, of at most
    ssr * FIT_DCHI2 / (N - 5): a change of FIT_DCHI2 in its chi^2 against
    its own noise variance ssr / (N - 5) (Press et al., Numerical Recipes
    15.5), MINPACK's relative ``ftol`` test (Moré 1978) with a tolerance
    set by the grid. The threshold depends only on the row's ssr and the
    grid. A row that converges or stalls leaves the working set, the
    predicted case before its step is evaluated, as does one that has
    evaluated FIT_MAX_ITER steps, converged only if its last step did.
    Only the normal equations of the current parameters are kept, never
    their Jacobian; each trial step is one ``_normal_equations`` row
    evaluation in ``work``.
    """
    max_iter, rtol = FIT_MAX_ITER, FIT_DCHI2 / (setup.freqs.size - 5)
    diagonal = np.arange(live.params.shape[1])
    done = np.zeros(len(live.index), dtype=bool)
    while True:
        _, _, params, ssr, gradient, hessian, damping, escalation, steps = live
        diag = hessian[:, diagonal, diagonal]
        diag[diag <= 0] = 1e-30
        damped = hessian.copy()
        damped[:, diagonal, diagonal] += damping[:, None] * diag
        step, solved = _solve_rows(damped, -gradient)
        predicted = damping[:, None] * diag * step - gradient
        predicted = (step[:, None, :] @ predicted[:, :, None])[:, 0, 0]  # row dot products
        spent = steps >= max_iter
        small = (predicted > 0) & (predicted <= rtol * np.maximum(ssr, 1e-300))
        # steps > 0: a row whose every step is rejected stalls
        done |= ~spent & (steps > 0) & solved & small
        leaving = done | spent
        if leaving.any():  # rows done last step, retired on this one, or out of steps
            out = live.index[leaving]
            for outcome, value in zip(fitted, (params, ssr, steps, done)):
                outcome[out] = value[leaving]
            keep = ~leaving
            live = _Live(*(a[keep] for a in live))
            _, _, params, ssr, gradient, hessian, damping, escalation, steps = live
            step, solved, predicted = step[keep], solved[keep], predicted[keep]
        if len(live.index) <= handoff:
            return live
        trial = params + step
        trial[:, 4] = np.maximum(trial[:, 4], setup.min_width)
        trial[:, :2] = np.clip(trial[:, :2], *setup.box)
        trial_ssr, trial_gradient, trial_hessian = _normal_equations(
            setup.freqs, amps, live.rows, trial, work
        )
        accept = solved & (trial_ssr < ssr) & (predicted > 0)

        improvement = ssr - trial_ssr
        params[accept] = trial[accept]
        ssr[accept] = trial_ssr[accept]
        gradient[accept] = trial_gradient[accept]
        hessian[accept] = trial_hessian[accept]
        gain = improvement[accept] / predicted[accept]
        # float_power calls C pow(), as Python's float power does (np.power's
        # cube rounds otherwise now and then); fmax keeps max's 1/3 for a NaN gain
        damping[accept] *= np.fmax(1.0 / 3.0, 1.0 - np.float_power(2.0 * gain - 1.0, 3))
        escalation[accept] = 2.0
        done = accept & (improvement <= rtol * np.maximum(ssr, 1e-300))

        reject = ~accept
        damping[reject] *= escalation[reject]
        escalation[reject] *= 2.0
        # steps this damped no longer change the residual: stalled at a
        # minimum (a singular system only escalates)
        done |= reject & solved & (damping > 1e14)
        steps += 1


def _doublet_fits(setup: _FitSetup, fitted: tuple) -> DoubletFits:
    """The ``DoubletFits`` of the outcome ``fitted``, at each spectrum's
    own scale."""
    params, ssr, iterations, converged, exponent = fitted
    widths = params[:, 4:5].repeat(2, axis=1)
    peaks = np.stack((params[:, 0:2], params[:, 2:4], widths), axis=-1)
    swapped = peaks[:, 1, 0] < peaks[:, 0, 0]
    peaks[swapped] = peaks[swapped, ::-1]
    residual_norm = np.sqrt(ssr / setup.freqs.size)
    # at least eps: a noiseless fit's residual is about 0, its integrals tiny, not 0
    floor = np.maximum(residual_norm, np.finfo(float).eps)
    # not "below": a NaN residual or peak fails every comparison, and flags
    low_confidence = ~(
        np.abs(peaks[:, :, 1]) >= 3.0 * floor[:, None] * math.pi * peaks[:, :, 2] / 2.0
    ).all(axis=1)
    peaks[:, :, 1] = np.ldexp(peaks[:, :, 1], exponent[:, None])
    return DoubletFits(
        peaks=peaks,
        residual_norm=np.ldexp(residual_norm, exponent),
        iterations=iterations,
        converged=converged & np.isfinite(ssr),
        low_confidence=low_confidence,
    )


def _fit_in_batches(setup: _FitSetup, size: int, spectra_of) -> DoubletFits:
    """The fits of ``size`` spectra, made and fitted a batch of about
    BATCH_SAMPLES grid samples at a time: ``spectra_of(start, stop)``
    returns the spectra [stop - start, N] from ``start`` to ``stop``.

    The batches run on one thread per usable CPU, each thread taking the
    next batch when it is free (numpy releases the GIL in the array work
    that dominates a batch). A batch of at least 4 _POOL_ROWS spectra
    stops its fit once at most _POOL_ROWS are still live and puts them in
    the straggler pool, each with a copy of its spectrum. The thread that
    brings the pool to a batch's worth of spectra finishes them all in one
    iteration, and the calling thread finishes what is left after the fit
    threads. So a thread holds at most about two batches of spectra, and
    less than one waits in the pool, whatever the grid and the count. A
    row's result depends neither on the batch size, nor on the thread
    count, nor on where it finishes. Numpy's float warnings are off in
    every batch and in the pool: a spectrum that overflows fails its fit,
    and its row records that. Each fit writes its outcome into the arrays
    ``fitted``, [S] each: the final parameters [S, 5], squared residual,
    steps evaluated, convergence, and the power of two by which the
    spectrum was scaled down for its fit.
    """
    batch = max(1, BATCH_SAMPLES // setup.freqs.size)
    handoff = _POOL_ROWS if batch >= 4 * _POOL_ROWS else 0
    unset = np.zeros(size, dtype=int)
    fitted = (np.empty((size, 5)), np.empty(size), unset, unset.astype(bool), unset.copy())
    pool, pooling = [], threading.Lock()

    def fit(start: int) -> None:
        with np.errstate(all="ignore"):  # numpy keeps this state per thread
            amps = spectra_of(start, min(start + batch, size))
            live, amps = _fit_batch(setup, amps, fitted, start, handoff)
            if not len(amps):
                return
            with pooling:
                pool.append((live, amps))
                if sum(len(pooled) for _, pooled in pool) < batch:
                    return
                full = pool[:]
                pool.clear()
            _fit_pool(setup, full, fitted)

    _threads._map_threads(fit, range(0, size, batch))
    with np.errstate(all="ignore"):
        _fit_pool(setup, pool, fitted)
    return _doublet_fits(setup, fitted)


def fit_doublets(
    freqs: np.ndarray, amps: np.ndarray, j_coupling: float, fwhm: float
) -> DoubletFits:
    """Bi-Lorentzian fits of the doublets split by ``j_coupling`` Hz in the
    spectra ``amps`` [S, N] sampled on the uniform grid ``freqs`` [N], by
    ``_fit_in_batches``, whose working memory beyond ``amps`` does not grow
    with S. A grid that is not strictly increasing and uniform raises
    ValueError.

    Each fit starts at the known doublet geometry: lines at -J/2 and +J/2
    with integrals read off the sampled amplitude at each center, and one
    width ``fwhm`` shared by both lines. Only the integrals differ between
    rows there, so the first normal equations of the whole batch come
    from basis functions of that geometry computed once, not from a
    per-row Jacobian; every later step evaluates its own. Each line stays
    inside a box of J/2 (at least two grid spacings) around its start, so
    a near-zero line cannot drift across its partner and swap the
    assignment. The damping follows the gain-ratio schedule (rejected
    steps and singular systems escalate it geometrically). A spectrum
    converges when an accepted step changes its chi^2 by at most
    FIT_DCHI2, chi^2 being its squared residual over the fit's own noise
    variance ssr / (N - 5), when escalation shows it stalled at a minimum,
    or, unevaluated, when its next step predicts a change that small. A
    noiseless spectrum reaches the rounding floor all the same, as each
    of its steps removes nearly all of its residual. Spectra that exhaust
    FIT_MAX_ITER steps, or whose residual is not finite (a NaN or inf
    sample), return ``converged`` False with their best parameters. A
    spectrum whose largest |amplitude| lies outside 2^-300..2^300 is
    fitted scaled into [0.5, 1) by a power of two, and its integrals and
    residual are scaled back, so a fit does not depend on the scale of its
    spectrum. A fit is ``low_confidence`` when
    a line's peak is below 3 RMS residuals, the fit's own noise estimate,
    or when that residual is not finite. A row's result does not depend
    on the other rows, nor on the batch, thread or pool that fits it.
    """
    setup = _fit_setup(freqs, j_coupling, fwhm)
    amps = np.asarray(amps, dtype=float)
    if amps.ndim != 2 or amps.shape[1] != setup.freqs.size:
        raise ValueError(f"need amps [S, {setup.freqs.size}], got {amps.shape}")
    return _fit_in_batches(setup, len(amps), lambda start, stop: amps[start:stop])


def fit_noisy_doublets(
    freqs: np.ndarray, pairs, j_coupling: float, fwhm: float, snr: float, seed: int, keys
) -> DoubletFits:
    """``fit_doublets`` of the spectra ``doublet_amps(freqs, pairs,
    j_coupling, fwhm)`` of the line-integral pairs [K, 2] with white
    Gaussian noise of sd max|spectrum| / ``snr`` (none at ``math.inf``),
    spectrum k's drawn from ``default_rng([seed, *keys[k]])`` bit for bit,
    where ``seed`` is a non-negative int and ``keys`` [K, W] holds ints
    from 0 to 2^32 - 1 (ValueError otherwise, at any snr, or unless
    snr > 0). All the seeds are hashed at once, before the first batch,
    and a batch is made only when a fit thread takes it."""
    setup = _fit_setup(freqs, j_coupling, fwhm)
    pairs, keys = np.asarray(pairs, dtype=float), np.asarray(keys)
    if not snr > 0:
        raise ValueError(f"snr must be > 0, got {snr}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"noise seed must be a non-negative int, got {seed!r}")
    if pairs.shape[1:] != (2,) or keys.ndim != 2 or len(keys) != len(pairs) or not (
        keys.dtype.kind in "iu" and (not keys.size or 0 <= keys.min() <= keys.max() <= _MASK32)
    ):
        raise ValueError("need pairs [K, 2] and keys [K, W] of ints from 0 to 2**32 - 1")
    words = None if math.isinf(snr) else _keyed_seed_words(seed, keys)

    def spectra_of(start: int, stop: int) -> np.ndarray:
        amps = doublet_amps(setup.freqs, pairs[start:stop], j_coupling, fwhm)
        return amps if words is None else _add_noise(amps, snr, words[start:stop])

    return _fit_in_batches(setup, len(pairs), spectra_of)


def coefficient_rows(lines1, lines2, eq1, eq2, label: PpsLabel) -> np.ndarray:
    """Pseudo-pure coefficients (a_from_spin2, a_from_spin1, b, c) [..., 4]
    from fitted line integrals.

    ``lines1`` [..., 2] holds (f0, f1) of nucleus 1 and ``lines2``, of
    the same shape, (h0, h1) of nucleus 2 (ValueError otherwise);
    ``eq1``/``eq2`` [2] are the equilibrium pairs used for normalization.
    Raises InconsistentEquilibrium when an equilibrium doublet is
    asymmetric beyond 5%.
    """
    lines1, lines2, eq1, eq2 = (mode_rows(rows, 2) for rows in (lines1, lines2, eq1, eq2))
    if lines2.shape != lines1.shape or eq1.shape != (2,) or eq2.shape != (2,):
        shapes = ", ".join(str(rows.shape) for rows in (lines1, lines2, eq1, eq2))
        raise ValueError(f"need lines1, lines2 [..., 2] of one shape, eq1, eq2 [2]; got {shapes}")
    for name, (line0, line1) in (("nucleus 1", eq1.tolist()), ("nucleus 2", eq2.tolist())):
        mean = line0 / 2 + line1 / 2  # no overflow near the float maximum
        if mean == 0 or not abs(line0 - line1) / abs(mean) <= EQ_ASYMMETRY_LIMIT:
            raise InconsistentEquilibrium(
                f"{name} equilibrium doublet asymmetry exceeds "
                f"{EQ_ASYMMETRY_LIMIT:.0%}: {line0:.6g} vs {line1:.6g}"
            )
    # halved first, exactly for normal floats, so that no sum of two
    # integrals near the float maximum overflows; every quotient is unchanged
    f0, f1 = np.moveaxis(lines1 / 2, -1, 0)
    h0, h1 = np.moveaxis(lines2 / 2, -1, 0)
    denom_f = float(eq1[0]) / 2 + float(eq1[1]) / 2
    denom_h = float(eq2[0]) / 2 + float(eq2[1]) / 2
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

