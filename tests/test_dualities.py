"""Duality maps between geometries: morphism property, involutions, orbits."""

import numpy as np
import pytest

from ckgeom import (
    DUALITIES,
    AlgebraElement,
    DualityName,
    KappaPair,
    UndefinedDualityError,
    apply_duality,
    bracket,
    duality_kappa,
    duality_matrix,
)
from ckgeom.dualities import RESTRICTIONS

from helpers import NINE

RNG = np.random.default_rng(17)


def morphism_defect(name: DualityName, kp: KappaPair) -> float | None:
    """Image of the dual-label bracket equals bracket of the images."""
    try:
        kpd = duality_kappa(name, kp)
    except UndefinedDualityError:
        return None
    m = duality_matrix(name, kp)
    worst = 0.0
    for _ in range(12):
        x = AlgebraElement(*RNG.uniform(-2, 2, 3))
        y = AlgebraElement(*RNG.uniform(-2, 2, 3))
        lhs = m @ bracket(kpd, x, y).as_array()
        rhs = bracket(
            kp, AlgebraElement(*(m @ x.as_array())), AlgebraElement(*(m @ y.as_array()))
        ).as_array()
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@pytest.mark.parametrize("name", DUALITIES, ids=lambda n: n.value)
@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_bracket_morphism_exact_on_sign_pairs(name, kp):
    defect = morphism_defect(name, kp)
    # the map is undefined exactly where the label its restriction names vanishes
    vanishing = RESTRICTIONS[name] is not None and getattr(kp, RESTRICTIONS[name]) == 0.0
    assert (defect is None) == vanishing
    if defect is None:
        with pytest.raises(UndefinedDualityError):
            duality_kappa(name, kp)
        with pytest.raises(UndefinedDualityError):
            duality_matrix(name, kp)
    else:
        assert defect == 0.0


@pytest.mark.parametrize("name", DUALITIES, ids=lambda n: n.value)
def test_bracket_morphism_at_generic_labels(name):
    for kp in (KappaPair(0.7, -1.3), KappaPair(-2.1, 0.4), KappaPair(3.0, 2.0)):
        assert morphism_defect(name, kp) < 1e-13


def test_d0_is_an_involution():
    for kp in NINE:
        m1 = duality_matrix(DualityName.D0, kp)
        m2 = duality_matrix(DualityName.D0, duality_kappa(DualityName.D0, kp))
        assert np.array_equal(m1 @ m2, np.eye(3))
        assert duality_kappa(DualityName.D0, duality_kappa(DualityName.D0, kp)) == kp


def test_d0_swaps_labels():
    kp = KappaPair(0.5, -2.0)
    kpd = duality_kappa(DualityName.D0, kp)
    assert (kpd.k1, kpd.k2) == (-2.0, 0.5)


def test_sphere_fixed_by_d0():
    kp = KappaPair(1.0, 1.0)
    assert duality_kappa(DualityName.D0, kp) == kp


def test_d2_exchanges_the_two_lorentzian_constant_curvature_planes():
    a = KappaPair(1.0, -1.0)
    b = KappaPair(-1.0, -1.0)
    assert duality_kappa(DualityName.D2, a) == b
    assert duality_kappa(DualityName.D2, b) == a


def test_kappa_actions():
    kp = KappaPair(0.5, -2.0)
    k1, k2, k12 = kp.k1, kp.k2, kp.k12
    assert duality_kappa(DualityName.ID, kp) == kp
    assert duality_kappa(DualityName.D0, kp) == KappaPair(k2, k1)
    assert duality_kappa(DualityName.D1, kp) == KappaPair(k1, k12)
    assert duality_kappa(DualityName.D2, kp) == KappaPair(k12, k2)
    assert duality_kappa(DualityName.D0D1, kp) == KappaPair(k12, k1)
    assert duality_kappa(DualityName.D0D2, kp) == KappaPair(k2, k12)


@pytest.mark.parametrize("name", DUALITIES, ids=lambda n: n.value)
def test_apply_duality_transforms_elements(name):
    kp = KappaPair(1.0, -1.0)
    try:
        out, kpd = apply_duality(name, kp, AlgebraElement(1.0, 2.0, 3.0))
    except UndefinedDualityError:
        return
    m = duality_matrix(name, kp)
    assert np.allclose(out.as_array(), m @ np.array([1.0, 2.0, 3.0]), atol=0.0)
    assert kpd == duality_kappa(name, kp)


def test_undefined_dualities_raise():
    undefined = []
    for name in DUALITIES:
        for kp in NINE:
            try:
                duality_matrix(name, kp)
            except UndefinedDualityError:
                undefined.append((name.value, kp.signs()))
    # degenerate labels admit no inverse rescaling for the maps that need one
    assert all(0 in signs for _, signs in undefined)
    assert undefined, "at least one map must be undefined somewhere"


def test_overflowing_target_labels_are_undefined():
    # k1 * k2 = 1e400 is not a double: only D0 and ID keep finite labels
    kp = KappaPair(1e200, 1e200)
    for name in DUALITIES:
        if name in (DualityName.D0, DualityName.ID):
            assert duality_kappa(name, kp) == kp
        else:
            with pytest.raises(UndefinedDualityError, match="finite label"):
                duality_kappa(name, kp)
