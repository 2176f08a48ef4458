"""Doublet spectra: synthesis, noise, bi-Lorentzian fitting, extraction.

Each nucleus of the coupled pair shows a two-line multiplet split by the
scalar coupling. In the rotating frame the doublet is centered at 0 Hz:
the line at -J/2 belongs to the partner spin in state 0 and the line at
+J/2 to the partner in state 1. Lines are absorption-mode Lorentzians
parameterized by their integral (not height), because integrals are what
the coefficient extraction consumes and they are robust against
linewidth changes.

The measurement chain mirrors an actual relaxation experiment:
synthesize the doublets of both nuclei, add white Gaussian noise, fit a
bi-Lorentzian model, and convert fitted line integrals back into the
pseudo-pure-state coefficients normalized by equilibrium intensities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spins import LineIntensities, PpsLabel, SpinSystem

__all__ = [
    "LinePeak",
    "Spectrum",
    "DoubletFit",
    "NormalizedCoefficients",
    "GridTooCoarse",
    "NoPeaksFound",
    "NotConverged",
    "InconsistentEquilibrium",
    "lorentzian",
    "frequency_grid",
    "synthesize",
    "add_noise",
    "estimate_noise_floor",
    "fit_doublet",
    "coefficients_from_fits",
    "save_spectrum",
    "load_spectrum",
]

#: Grid spacing must not exceed this fraction of the linewidth.
GRID_SPACING_FACTOR = 0.1

#: Grid must cover the line centers by this many linewidths.
GRID_COVER_FACTOR = 5.0

#: Equilibrium doublet asymmetry accepted by coefficient extraction.
EQ_ASYMMETRY_LIMIT = 0.05

FIT_MAX_ITER = 200
FIT_RTOL = 1e-10


class GridTooCoarse(ValueError):
    """Frequency grid spacing exceeds fwhm/10."""


class NoPeaksFound(RuntimeError):
    """No local maximum rises above 3x the estimated noise floor."""


class NotConverged(RuntimeError):
    """Fit iteration budget exhausted; ``fit`` holds the best attempt."""

    def __init__(self, message: str, fit: "DoubletFit"):
        super().__init__(message)
        self.fit = fit


class InconsistentEquilibrium(ValueError):
    """Equilibrium doublet lines differ by more than the accepted asymmetry."""


@dataclass(frozen=True)
class LinePeak:
    """One absorption line: center (Hz), integral (intensity units),
    full width at half maximum (Hz)."""

    center: float
    integral: float
    fwhm: float

    def __post_init__(self):
        if not (math.isfinite(self.fwhm) and self.fwhm > 0):
            raise ValueError(f"fwhm must be finite and > 0, got {self.fwhm!r}")
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center!r}")

    @property
    def height(self) -> float:
        return 2.0 * self.integral / (math.pi * self.fwhm)


@dataclass(frozen=True)
class Spectrum:
    """Sampled 1D absorption spectrum of one nucleus (1 or 2)."""

    freqs: np.ndarray
    amps: np.ndarray
    nucleus: int

    def __post_init__(self):
        if self.freqs.shape != self.amps.shape or self.freqs.ndim != 1:
            raise ValueError("freqs and amps must be 1D arrays of equal length")
        if self.nucleus not in (1, 2):
            raise ValueError(f"nucleus must be 1 or 2, got {self.nucleus!r}")
        steps = np.diff(self.freqs)
        if len(steps) and (steps.min() <= 0 or np.ptp(steps) > 1e-9 * steps.mean()):
            raise ValueError("freqs must be strictly increasing and uniform")
        self.freqs.setflags(write=False)
        self.amps.setflags(write=False)

    @property
    def spacing(self) -> float:
        return float(self.freqs[1] - self.freqs[0])


@dataclass(frozen=True)
class DoubletFit:
    """Bi-Lorentzian fit result; peaks ordered by ascending center."""

    peaks: tuple[LinePeak, LinePeak]
    residual_norm: float
    iterations: int
    converged: bool
    low_confidence: bool = False


@dataclass(frozen=True)
class NormalizedCoefficients:
    """Pseudo-pure coefficients from fitted line integrals, normalized by
    the equilibrium doublet sum of the readout nucleus.

    The ``a`` coefficient is measurable on either nucleus; both readouts
    are reported and never averaged. ``b`` (spin-1 excess) comes from the
    spin-1 doublet and ``c`` (spin-2 excess) from the spin-2 doublet.
    """

    a_from_spin2: float
    a_from_spin1: float
    b: float
    c: float


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


def synthesize(
    intensities: LineIntensities,
    sys: SpinSystem,
    nucleus: int,
    fwhm: float,
    span: float,
    points: int,
) -> Spectrum:
    """Doublet spectrum of one nucleus on a symmetric grid around 0 Hz.

    The 0-line sits at -J/2 and the 1-line at +J/2. For nucleus 2 the
    pair carries (h0, h1), for nucleus 1 (f0, f1). The grid is
    ``points`` samples across ``span`` Hz and must cover both centers by
    5 fwhm; spacing coarser than fwhm/10 raises GridTooCoarse.
    """
    if nucleus == 1:
        pair = (intensities.f0, intensities.f1)
    elif nucleus == 2:
        pair = (intensities.h0, intensities.h1)
    else:
        raise ValueError(f"nucleus must be 1 or 2, got {nucleus!r}")
    freqs = frequency_grid(sys.j_coupling, fwhm, span, points)
    amps = lorentzian(freqs, -sys.j_coupling / 2.0, pair[0], fwhm) + lorentzian(
        freqs, +sys.j_coupling / 2.0, pair[1], fwhm
    )
    return Spectrum(freqs=freqs, amps=amps, nucleus=nucleus)


def add_noise(s: Spectrum, snr: float, seed: int) -> Spectrum:
    """White Gaussian noise with sd = max|amps| / snr, seeded and
    reproducible. ``snr=math.inf`` returns the spectrum unchanged."""
    if not snr > 0:
        raise ValueError(f"snr must be > 0, got {snr}")
    if math.isinf(snr):
        return s
    scale = float(np.max(np.abs(s.amps)))
    rng = np.random.default_rng(seed)
    noisy = s.amps + rng.normal(0.0, scale / snr, size=s.amps.shape)
    return Spectrum(freqs=s.freqs.copy(), amps=noisy, nucleus=s.nucleus)


def estimate_noise_floor(amps: np.ndarray) -> float:
    """Robust noise estimate from the median absolute successive
    difference (the signal contributes only smooth, mostly small diffs)."""
    diffs = np.abs(np.diff(amps))
    return 1.4826 * float(np.median(diffs)) / math.sqrt(2.0)


def _local_maxima(amps: np.ndarray) -> np.ndarray:
    inner = (amps[1:-1] > amps[:-2]) & (amps[1:-1] >= amps[2:])
    return np.where(inner)[0] + 1


def _half_height_width(freqs: np.ndarray, amps: np.ndarray, idx: int) -> float:
    """Width of the feature at ``idx`` at half its height; crude but only
    used to seed the fit."""
    half = amps[idx] / 2.0
    lo = idx
    while lo > 0 and amps[lo] > half:
        lo -= 1
    hi = idx
    while hi < len(amps) - 1 and amps[hi] > half:
        hi += 1
    width = float(freqs[hi] - freqs[lo])
    spacing = float(freqs[1] - freqs[0])
    return max(width, 2.0 * spacing)


def _initial_peaks(s: Spectrum) -> tuple[LinePeak, LinePeak]:
    """Seed the fit from the two largest well-separated local maxima.

    Noise bumps riding on the flank of a tall line often outrank the
    true partner line, so the second pick must sit at least two
    estimated linewidths away from the first. Without such a maximum
    (degenerate one-line doublet) the second seed is mirrored across
    the grid midpoint with a floor-level integral.
    """
    floor = estimate_noise_floor(s.amps)
    maxima = _local_maxima(s.amps)
    maxima = maxima[s.amps[maxima] > 3.0 * floor]
    if maxima.size == 0:
        raise NoPeaksFound(
            f"no local maximum above 3x noise floor ({floor:.4g})"
        )
    order = maxima[np.argsort(s.amps[maxima])[::-1]]
    top = int(order[0])
    width = _half_height_width(s.freqs, s.amps, top)
    first = LinePeak(
        center=float(s.freqs[top]),
        integral=float(s.amps[top]) * math.pi * width / 2.0,
        fwhm=width,
    )
    # search for the partner line in the residual after removing the first
    # peak, so that noise riding on its tail cannot masquerade as a line
    residual = s.amps - lorentzian(s.freqs, first.center, first.integral, first.fwhm)
    candidates = _local_maxima(residual)
    candidates = candidates[
        (residual[candidates] > 3.0 * floor)
        & (np.abs(s.freqs[candidates] - first.center) >= 2.0 * width)
    ]
    second = None
    if candidates.size:
        idx = int(candidates[np.argmax(residual[candidates])])
        second = LinePeak(
            center=float(s.freqs[idx]),
            integral=float(residual[idx]) * math.pi * width / 2.0,
            fwhm=width,
        )
    if second is None:
        mid = float(s.freqs[0] + s.freqs[-1]) / 2.0
        second = LinePeak(
            center=2.0 * mid - first.center,
            integral=max(floor, 1e-6 * abs(first.integral)) * math.pi * width / 2.0,
            fwhm=width,
        )
    return first, second


def _model_and_jacobian(
    freqs: np.ndarray, params: np.ndarray, shared_fwhm: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Bi-Lorentzian model and its analytic Jacobian.

    Parameter layout: (c_a, c_b, i_a, i_b, w) shared or
    (c_a, c_b, i_a, i_b, w_a, w_b) independent.
    """
    n_params = 5 if shared_fwhm else 6
    model = np.zeros_like(freqs)
    jac = np.zeros((freqs.size, n_params))
    for line in (0, 1):
        center = params[line]
        integral = params[2 + line]
        width = params[4] if shared_fwhm else params[4 + line]
        half = width / 2.0
        diff = freqs - center
        denom = diff ** 2 + half ** 2
        shape = half / denom  # pi/integral * lorentzian
        model += (integral / math.pi) * shape
        jac[:, line] = (integral / math.pi) * half * 2.0 * diff / denom ** 2
        jac[:, 2 + line] = shape / math.pi
        d_half = (integral / math.pi) * (diff ** 2 - half ** 2) / denom ** 2
        if shared_fwhm:
            jac[:, 4] += 0.5 * d_half
        else:
            jac[:, 4 + line] = 0.5 * d_half
    return model, jac


def _params_from_peaks(
    peaks: tuple[LinePeak, LinePeak], shared_fwhm: bool
) -> np.ndarray:
    first, second = peaks
    if shared_fwhm:
        width = (first.fwhm + second.fwhm) / 2.0
        return np.array(
            [first.center, second.center, first.integral, second.integral, width]
        )
    return np.array(
        [
            first.center,
            second.center,
            first.integral,
            second.integral,
            first.fwhm,
            second.fwhm,
        ]
    )


def _peaks_from_params(params: np.ndarray, shared_fwhm: bool) -> tuple[LinePeak, LinePeak]:
    widths = (params[4], params[4]) if shared_fwhm else (params[4], params[5])
    peaks = [
        LinePeak(center=float(params[i]), integral=float(params[2 + i]), fwhm=float(widths[i]))
        for i in (0, 1)
    ]
    peaks.sort(key=lambda p: p.center)
    return peaks[0], peaks[1]


def fit_doublet(
    s: Spectrum,
    init: DoubletFit | None = None,
    shared_fwhm: bool = True,
    max_iter: int = FIT_MAX_ITER,
    rtol: float = FIT_RTOL,
) -> DoubletFit:
    """Least-squares bi-Lorentzian fit with Levenberg-Marquardt damping.

    Initialization comes from the two largest well-separated local
    maxima unless ``init`` provides a seed. Both linewidths are
    constrained equal by default. The damping follows the gain-ratio
    schedule (rejected steps escalate the damping geometrically), and
    the fit converges when an accepted step changes the squared residual
    by less than ``rtol`` relatively, or when damping escalation shows
    the iteration is stalled at a minimum. Exhausting ``max_iter``
    raises NotConverged carrying the best fit so far.

    When one doublet line is consistent with zero, the location of that
    component is not identifiable; the result is then flagged
    ``low_confidence`` and positional line assignment (lower center =
    0-line) is only trustworthy if a seed pinned the geometry.
    """
    if s.freqs.size < 50:
        raise ValueError(f"spectrum too short to fit ({s.freqs.size} < 50 samples)")
    seed_peaks = init.peaks if init is not None else _initial_peaks(s)
    params = _params_from_peaks(seed_peaks, shared_fwhm)
    min_width = 2.0 * s.spacing
    if init is not None:
        # a seed fixes line identity: each component stays on its own
        # side, inside a box of half the seed separation, so a near-zero
        # line cannot drift across its partner and swap the assignment
        half_sep = max(abs(params[1] - params[0]) / 2.0, 2.0 * s.spacing)
        center_lo = np.array([params[0] - half_sep, params[1] - half_sep])
        center_hi = np.array([params[0] + half_sep, params[1] + half_sep])
    else:
        # blind fit: a component outside the padded window is pure
        # baseline; cap the drift of unidentifiable near-zero lines
        span = float(s.freqs[-1] - s.freqs[0])
        center_lo = np.array([s.freqs[0] - 0.5 * span] * 2)
        center_hi = np.array([s.freqs[-1] + 0.5 * span] * 2)
    width_slice = slice(4, 5) if shared_fwhm else slice(4, 6)

    model, jac = _model_and_jacobian(s.freqs, params, shared_fwhm)
    residual = model - s.amps
    ssr = float(residual @ residual)
    damping = 1e-3
    escalation = 2.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        gradient = jac.T @ residual
        hessian = jac.T @ jac
        diag = np.diag(hessian).copy()
        diag[diag <= 0] = 1e-30
        try:
            step = np.linalg.solve(hessian + damping * np.diag(diag), -gradient)
        except np.linalg.LinAlgError:
            damping *= escalation
            escalation *= 2.0
            continue
        trial = params + step
        trial[width_slice] = np.maximum(trial[width_slice], min_width)
        trial[0:2] = np.clip(trial[0:2], center_lo, center_hi)
        model, trial_jac = _model_and_jacobian(s.freqs, trial, shared_fwhm)
        trial_residual = model - s.amps
        trial_ssr = float(trial_residual @ trial_residual)
        predicted = float(step @ (damping * diag * step - gradient))
        if trial_ssr < ssr and predicted > 0:
            improvement = ssr - trial_ssr
            gain = improvement / predicted
            params, residual, jac, ssr = trial, trial_residual, trial_jac, trial_ssr
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            escalation = 2.0
            if improvement <= rtol * max(ssr, 1e-300):
                converged = True
                break
        else:
            damping *= escalation
            escalation *= 2.0
            if damping > 1e14:
                # steps this damped no longer change the residual: stalled
                # at a minimum
                converged = True
                break

    peaks = _peaks_from_params(params, shared_fwhm)
    floor = estimate_noise_floor(s.amps)
    low_confidence = any(
        abs(p.integral) < 3.0 * floor * math.pi * p.fwhm / 2.0 for p in peaks
    )
    fit = DoubletFit(
        peaks=peaks,
        residual_norm=math.sqrt(ssr / s.freqs.size),
        iterations=iterations,
        converged=converged,
        low_confidence=low_confidence,
    )
    if not converged:
        raise NotConverged(f"no convergence in {max_iter} iterations", fit)
    return fit


def coefficients_from_fits(
    fit1: DoubletFit,
    fit2: DoubletFit,
    eq1: DoubletFit,
    eq2: DoubletFit,
    label: PpsLabel,
) -> NormalizedCoefficients:
    """Pseudo-pure coefficients from fitted doublets of both nuclei.

    fit1/eq1 belong to nucleus 1 (spin-1 lines f0, f1), fit2/eq2 to
    nucleus 2 (h0, h1); the eq fits are the equilibrium reference used
    for normalization. The lower-center peak of each doublet is the
    0-line. Raises InconsistentEquilibrium when an equilibrium doublet
    is asymmetric beyond 5%.
    """
    for name, fit in (("fit1", fit1), ("fit2", fit2), ("eq1", eq1), ("eq2", eq2)):
        if not fit.converged:
            raise ValueError(f"{name} did not converge")
    for name, eq in (("nucleus 1", eq1), ("nucleus 2", eq2)):
        line0, line1 = eq.peaks[0].integral, eq.peaks[1].integral
        mean = (line0 + line1) / 2.0
        if mean == 0 or abs(line0 - line1) / abs(mean) > EQ_ASYMMETRY_LIMIT:
            raise InconsistentEquilibrium(
                f"{name} equilibrium doublet asymmetry exceeds "
                f"{EQ_ASYMMETRY_LIMIT:.0%}: {line0:.6g} vs {line1:.6g}"
            )
    f0, f1 = fit1.peaks[0].integral, fit1.peaks[1].integral
    h0, h1 = fit2.peaks[0].integral, fit2.peaks[1].integral
    denom_f = eq1.peaks[0].integral + eq1.peaks[1].integral
    denom_h = eq2.peaks[0].integral + eq2.peaks[1].integral
    s = label.sign_pattern
    return NormalizedCoefficients(
        a_from_spin2=s.s12 * (h0 - h1) / denom_h,
        a_from_spin1=s.s12 * (f0 - f1) / denom_f,
        b=(f0 + f1 - s.s1 * s.s12 * (f0 - f1)) / denom_f,
        c=(h0 + h1 - s.s2 * s.s12 * (h0 - h1)) / denom_h,
    )


def save_spectrum(s: Spectrum, path, *, time: float = 0.0, scenario_id: str = "") -> None:
    """Two-column plain-text spectrum with ``#`` metadata header."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# nucleus: {s.nucleus}\n")
        fh.write(f"# time_s: {time!r}\n")
        fh.write(f"# scenario: {scenario_id}\n")
        fh.write("# columns: frequency_hz amplitude\n")
        for f, a in zip(s.freqs, s.amps):
            fh.write(f"{float(f)!r} {float(a)!r}\n")


def load_spectrum(path) -> Spectrum:
    """Read a spectrum written by :func:`save_spectrum`."""
    nucleus = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# nucleus:"):
                    nucleus = int(line.split(":", 1)[1])
                continue
            f, a = line.split()
            rows.append((float(f), float(a)))
    if nucleus is None or not rows:
        raise ValueError(f"not a spectrum file: {path}")
    arr = np.array(rows)
    return Spectrum(freqs=arr[:, 0], amps=arr[:, 1], nucleus=nucleus)
