"""Longitudinal-mode algebra for a weakly coupled two-spin system.

A longitudinal (diagonal) state is described by three magnetization modes:
the single-spin orders I1z and I2z and the two-spin order 2*I1z*I2z. The
level basis is |spin1 spin2> in the order 00, 01, 10, 11, with spin 1 the
fluorine-like nucleus and spin 2 the proton-like nucleus. Diagonal
operators follow the spin-1/2 convention Iz = diag(+1/2, -1/2), which
makes 2*I1z*I2z = diag(+1/2, -1/2, -1/2, +1/2) and puts the equilibrium
deviation populations proportional to
(g1+g2, g1-g2, -g1+g2, -g1-g2)/2.

Everything in this module is a pure function over small immutable value
types (or mode rows in arrays); there is no hidden state.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "SpinSystem",
    "ModeVector",
    "PpsLabel",
    "SignPattern",
    "PopulationVector",
    "LineIntensities",
    "NotTraceless",
    "equilibrium_modes",
    "pps_modes",
    "modes_to_populations",
    "populations_to_modes",
    "doublet_pairs",
    "line_intensities",
]

#: Absolute tolerance on the population sum accepted by populations_to_modes.
TRACE_TOL = 1e-9


class NotTraceless(ValueError):
    """Population vector does not sum to zero within tolerance."""


class SignPattern(NamedTuple):
    """Signs (each +1 or -1) of the three modes in a pseudo-pure state."""

    s1: int
    s2: int
    s12: int


class PpsLabel(enum.Enum):
    """The four computational-basis pseudo-pure states of two qubits."""

    P00 = "00"
    P01 = "01"
    P10 = "10"
    P11 = "11"

    @property
    def sign_pattern(self) -> SignPattern:
        return _SIGNS[self]

    def __str__(self) -> str:  # wire form used in CSV and config files
        return self.value


_SIGNS = {
    PpsLabel.P00: SignPattern(+1, +1, +1),
    PpsLabel.P01: SignPattern(-1, +1, +1),
    PpsLabel.P10: SignPattern(+1, -1, +1),
    PpsLabel.P11: SignPattern(+1, +1, -1),
}


@dataclass(frozen=True)
class SpinSystem:
    """Static description of the heteronuclear two-spin sample.

    gamma1 and gamma2 are gyromagnetic weights in relative units (proton
    normalised to 1 by default), k is the pseudo-pure-state amplitude in
    the same units, j_coupling the scalar coupling in Hz, and freq1/freq2
    the carrier resonance frequencies in Hz (metadata for spectra only).
    """

    gamma1: float = 0.9407
    gamma2: float = 1.0
    k: float = 0.5
    j_coupling: float = 5.8
    freq1: float = 470.59e6
    freq2: float = 500.13e6

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "k", "j_coupling"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.k > min(self.gamma1, self.gamma2):
            # Populations of such a state are not reachable from equilibrium,
            # but exploration of the regime is allowed.
            warnings.warn(
                f"k={self.k} exceeds min(gamma1, gamma2)="
                f"{min(self.gamma1, self.gamma2)}; state amplitude is unphysical",
                UserWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class ModeVector:
    """Coefficients of (I1z, I2z, 2*I1z*I2z), in gyromagnetic units."""

    c1: float
    c2: float
    c12: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.c1, self.c2, self.c12)):
            raise ValueError(f"mode coefficients must be finite: {self}")

    def to_tuple(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c12)

    @classmethod
    def from_sequence(cls, values) -> "ModeVector":
        c1, c2, c12 = (float(v) for v in values)
        return cls(c1, c2, c12)


@dataclass(frozen=True)
class PopulationVector:
    """Deviation populations of the four levels, ordered 00, 01, 10, 11."""

    p00: float
    p01: float
    p10: float
    p11: float

    def total(self) -> float:
        return self.p00 + self.p01 + self.p10 + self.p11


@dataclass(frozen=True)
class LineIntensities:
    """Integrated intensities of the four single-quantum transitions.

    h0/h1 are the spin-2 (proton) lines with spin 1 in state 0/1; f0/f1
    the spin-1 (fluorine) lines with spin 2 in state 0/1.
    """

    h0: float
    h1: float
    f0: float
    f1: float


def equilibrium_modes(sys: SpinSystem) -> ModeVector:
    """Thermal-equilibrium mode vector (g1, g2, 0); no two-spin order."""
    return ModeVector(sys.gamma1, sys.gamma2, 0.0)


def pps_modes(label: PpsLabel, sys: SpinSystem) -> ModeVector:
    """Freshly prepared pseudo-pure state: amplitude k on every mode,
    with the sign pattern belonging to ``label``."""
    s = label.sign_pattern
    return ModeVector(sys.k * s.s1, sys.k * s.s2, sys.k * s.s12)


def modes_to_populations(m: ModeVector) -> PopulationVector:
    """Diagonal (deviation-population) representation of a mode vector.

    Traceless by construction.
    """
    return PopulationVector(
        p00=(m.c1 + m.c2 + m.c12) / 2.0,
        p01=(m.c1 - m.c2 - m.c12) / 2.0,
        p10=(-m.c1 + m.c2 - m.c12) / 2.0,
        p11=(-m.c1 - m.c2 + m.c12) / 2.0,
    )


def populations_to_modes(p: PopulationVector) -> ModeVector:
    """Inverse of :func:`modes_to_populations` on the traceless subspace.

    Raises NotTraceless if the populations do not sum to zero within
    ``TRACE_TOL``.
    """
    total = p.total()
    if abs(total) > TRACE_TOL:
        raise NotTraceless(f"population sum {total!r} exceeds {TRACE_TOL}")
    return ModeVector(
        c1=(p.p00 + p.p01 - p.p10 - p.p11) / 2.0,
        c2=(p.p00 - p.p01 + p.p10 - p.p11) / 2.0,
        c12=(p.p00 - p.p01 - p.p10 + p.p11) / 2.0,
    )


def doublet_pairs(modes) -> np.ndarray:
    """Line-integral pairs [..., 2, 2] of mode rows [..., 3] (c1, c2, c12):
    ((f0, f1), (h0, h1)), the doublet of nucleus 1 then of nucleus 2."""
    modes = np.asarray(modes, dtype=float)
    c1, c2, c12 = modes[..., 0], modes[..., 1], modes[..., 2]
    return np.stack(
        (np.stack((c1 + c12, c1 - c12), axis=-1), np.stack((c2 + c12, c2 - c12), axis=-1)),
        axis=-2,
    )


def line_intensities(m: ModeVector) -> LineIntensities:
    """Transition intensities as population differences.

    h0 = p00-p01, h1 = p10-p11, f0 = p00-p10, f1 = p01-p11, which reduce
    to sums and differences of the mode coefficients (see
    :func:`doublet_pairs`).
    """
    (f0, f1), (h0, h1) = doublet_pairs(m.to_tuple()).tolist()
    return LineIntensities(h0=h0, h1=h1, f0=f0, f1=f1)
