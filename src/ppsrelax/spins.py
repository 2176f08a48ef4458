"""Longitudinal-mode algebra for a weakly coupled two-spin system.

A longitudinal (diagonal) state is described by three magnetization modes:
the single-spin orders I1z and I2z and the two-spin order 2*I1z*I2z. The
level basis is |spin1 spin2> in the order 00, 01, 10, 11, with spin 1 the
fluorine-like nucleus and spin 2 the proton-like nucleus. Diagonal
operators follow the spin-1/2 convention Iz = diag(+1/2, -1/2), which
makes 2*I1z*I2z = diag(+1/2, -1/2, -1/2, +1/2) and puts the equilibrium
deviation populations proportional to
(g1+g2, g1-g2, -g1+g2, -g1-g2)/2.

A mode state is a float row [3] (c1, c2, c12); a stack of states is an
array [..., 3]. ``doublet_pairs`` turns mode rows into the line
integrals of both nuclei's doublets, the input of the measurement chain
in :mod:`ppsrelax.spectra`. Everything in this module is a pure
function; there is no hidden state.
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
    "PpsLabel",
    "SignPattern",
    "equilibrium_modes",
    "pps_modes",
    "doublet_pairs",
]

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
                stacklevel=3,  # past the generated __init__, to its caller
            )


def mode_rows(modes, width: int = 3) -> np.ndarray:
    """``modes`` as float rows [..., width], mode rows [..., 3] by default,
    or ValueError naming its shape."""
    if (modes := np.asarray(modes, dtype=float)).shape[-1:] != (width,):
        raise ValueError(f"need rows [..., {width}], got shape {modes.shape}")
    return modes


def equilibrium_modes(sys: SpinSystem) -> np.ndarray:
    """Thermal-equilibrium mode row (g1, g2, 0); no two-spin order."""
    return np.array((sys.gamma1, sys.gamma2, 0.0))


def pps_modes(label: PpsLabel | str, sys: SpinSystem) -> np.ndarray:
    """Freshly prepared pseudo-pure state: a mode row of amplitude k on
    every mode, with the sign pattern belonging to ``label``, a PpsLabel
    or its value ("00" to "11"; ValueError otherwise)."""
    return sys.k * np.array(PpsLabel(label).sign_pattern, float)


def doublet_pairs(modes) -> np.ndarray:
    """Line-integral pairs [..., 2, 2] of mode rows [..., 3] (c1, c2, c12):
    ((f0, f1), (h0, h1)), the doublet of nucleus 1 then of nucleus 2.

    The integrals are population differences of the single-quantum
    transitions: f0 = p00-p10 and f1 = p01-p11 are the spin-1 (fluorine)
    lines with spin 2 in state 0/1, h0 = p00-p01 and h1 = p10-p11 the
    spin-2 (proton) lines with spin 1 in state 0/1. In modes they are
    f = c1 +- c12 and h = c2 +- c12.
    """
    modes = mode_rows(modes)
    c1, c2, c12 = modes[..., 0], modes[..., 1], modes[..., 2]
    return np.stack(
        (np.stack((c1 + c12, c1 - c12), axis=-1), np.stack((c2 + c12, c2 - c12), axis=-1)),
        axis=-2,
    )

