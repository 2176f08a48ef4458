import math

import numpy as np
import pytest

from oracle import Populations, modes_to_populations, populations_to_modes
from ppsrelax.spins import (
    LineIntensities,
    ModeVector,
    PpsLabel,
    SpinSystem,
    equilibrium_modes,
    line_intensities,
    pps_modes,
)


def random_modes(rng, n=50):
    for _ in range(n):
        yield ModeVector(*rng.uniform(-2.0, 2.0, 3))


def test_equilibrium_modes_default_system():
    m = equilibrium_modes(SpinSystem(gamma1=0.9407, gamma2=1.0))
    assert m == ModeVector(0.9407, 1.0, 0.0)


def test_equilibrium_modes_homonuclear():
    assert equilibrium_modes(SpinSystem(gamma1=1, gamma2=1, k=0.5)) == ModeVector(1, 1, 0)


def test_equilibrium_modes_arbitrary_weights():
    assert equilibrium_modes(SpinSystem(gamma1=2, gamma2=3, k=1)) == ModeVector(2, 3, 0)


@pytest.mark.parametrize(
    "label,k,expected",
    [
        (PpsLabel.P00, 1.0, (1.0, 1.0, 1.0)),
        (PpsLabel.P11, 0.5, (0.5, 0.5, -0.5)),
        (PpsLabel.P01, 2.0, (-2.0, 2.0, 2.0)),
        (PpsLabel.P10, 1.0, (1.0, -1.0, 1.0)),
    ],
)
def test_pps_modes_sign_patterns(label, k, expected):
    sys_obj = SpinSystem(gamma1=2.5, gamma2=2.5, k=k)
    assert pps_modes(label, sys_obj).to_tuple() == expected


def test_pps_modes_magnitudes_all_k():
    sys_obj = SpinSystem(k=0.25)
    for label in PpsLabel:
        m = pps_modes(label, sys_obj)
        assert all(abs(v) == 0.25 for v in m.to_tuple())


def test_sign_pattern_table_is_bijective():
    patterns = {label.sign_pattern for label in PpsLabel}
    assert len(patterns) == 4


def test_modes_to_populations_equilibrium():
    g1, g2 = 0.9407, 1.0
    p = modes_to_populations(ModeVector(g1, g2, 0.0))
    assert p.p00 == pytest.approx((g1 + g2) / 2, abs=1e-15)
    assert p.p01 == pytest.approx((g1 - g2) / 2, abs=1e-15)
    assert p.p10 == pytest.approx((-g1 + g2) / 2, abs=1e-15)
    assert p.p11 == pytest.approx(-(g1 + g2) / 2, abs=1e-15)


def test_modes_to_populations_pps00():
    p = modes_to_populations(ModeVector(1, 1, 1))
    assert (p.p00, p.p01, p.p10, p.p11) == (1.5, -0.5, -0.5, -0.5)


def test_modes_to_populations_zero():
    p = modes_to_populations(ModeVector(0, 0, 0))
    assert (p.p00, p.p01, p.p10, p.p11) == (0, 0, 0, 0)


def test_populations_are_always_traceless():
    rng = np.random.default_rng(11)
    for m in random_modes(rng):
        assert sum(modes_to_populations(m)) == pytest.approx(0.0, abs=1e-15)


def test_populations_to_modes_inverse_example():
    m = populations_to_modes(Populations(1.5, -0.5, -0.5, -0.5))
    assert m == ModeVector(1, 1, 1)


def test_populations_to_modes_zero():
    assert populations_to_modes(Populations(0, 0, 0, 0)) == ModeVector(0, 0, 0)


def test_population_mode_round_trip():
    rng = np.random.default_rng(7)
    for m in random_modes(rng):
        back = populations_to_modes(modes_to_populations(m))
        np.testing.assert_allclose(back.to_tuple(), m.to_tuple(), atol=1e-12)


def test_line_intensities_fresh_pps00():
    k = 0.5
    li = line_intensities(ModeVector(k, k, k))
    assert (li.h0, li.h1, li.f0, li.f1) == (2 * k, 0.0, 2 * k, 0.0)


def test_line_intensities_fresh_pps11():
    k = 0.5
    li = line_intensities(ModeVector(k, k, -k))
    assert (li.h0, li.h1, li.f0, li.f1) == (0.0, 2 * k, 0.0, 2 * k)


def test_line_intensities_equilibrium_doublets_symmetric():
    li = line_intensities(ModeVector(0.9407, 1.0, 0.0))
    assert li.h0 == li.h1 == 1.0
    assert li.f0 == li.f1 == 0.9407


def test_line_intensity_identities():
    rng = np.random.default_rng(3)
    for m in random_modes(rng):
        li = line_intensities(m)
        assert li.h0 + li.h1 == pytest.approx(2 * m.c2, rel=1e-14, abs=1e-14)
        assert li.f0 + li.f1 == pytest.approx(2 * m.c1, rel=1e-14, abs=1e-14)
        assert li.h0 - li.h1 == pytest.approx(2 * m.c12, rel=1e-14, abs=1e-14)
        assert li.f0 - li.f1 == pytest.approx(2 * m.c12, rel=1e-14, abs=1e-14)


def test_line_intensities_match_population_differences():
    rng = np.random.default_rng(5)
    for m in random_modes(rng):
        li = line_intensities(m)
        p = modes_to_populations(m)
        assert li.h0 == pytest.approx(p.p00 - p.p01, abs=1e-14)
        assert li.h1 == pytest.approx(p.p10 - p.p11, abs=1e-14)
        assert li.f0 == pytest.approx(p.p00 - p.p10, abs=1e-14)
        assert li.f1 == pytest.approx(p.p01 - p.p11, abs=1e-14)


def test_spin_system_validation():
    with pytest.raises(ValueError):
        SpinSystem(gamma1=-1.0)
    with pytest.raises(ValueError):
        SpinSystem(j_coupling=0.0)
    with pytest.raises(ValueError):
        SpinSystem(k=math.nan)


def test_spin_system_warns_on_unreachable_amplitude():
    with pytest.warns(UserWarning, match="unphysical") as record:
        SpinSystem(gamma1=0.9, gamma2=1.0, k=0.95)
    assert record[0].filename == __file__  # the caller, not the generated __init__


def test_mode_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        ModeVector(math.inf, 0.0, 0.0)


def test_line_intensities_dataclass_fields():
    li = LineIntensities(h0=1.0, h1=2.0, f0=3.0, f1=4.0)
    assert (li.h0, li.h1, li.f0, li.f1) == (1.0, 2.0, 3.0, 4.0)
