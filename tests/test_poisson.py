"""Poisson-Lie layer: cocommutators, bialgebra checks, Sklyanin brackets."""

import itertools
import math

import numpy as np
import pytest

from ckgeom import (
    GENERATOR_NAMES,
    ChartDomainError,
    CoisotropyVerdict,
    DeformationKind,
    GroupCoordinates,
    GroupElement,
    InvariantFields,
    KappaPair,
    bialgebra_check,
    cocommutator_map,
    coisotropy_check,
    coords_from_group,
    group_from_coords,
    ktrig,
    mcybe_defect,
    phs_points_bracket,
    rmatrix,
    schouten,
    sklyanin_numeric,
)
from ckgeom.group import _one_param
from ckgeom.poisson import (
    _EPSILON3,
    TRANSLATION_STEP,
    _invariant_fields,
    _invariant_vector_fields,
    _schouten_tensor,
    _sklyanin_closed,
)

from helpers import (
    NINE,
    NONDEGENERATE,
    cocomm_first,
    cocomm_second,
    phs_first,
    phs_second,
    sklyanin_rows,
)

Z = 0.17
RNG = np.random.default_rng(41)


def small_coords(kp: KappaPair) -> np.ndarray:
    """One group point (a1, a2, xi)."""
    def bound(label):
        if label > 1e-12:
            return 0.35 * math.pi / math.sqrt(label)
        return 1.0

    return np.array([
        RNG.uniform(-bound(kp.k1), bound(kp.k1)),
        RNG.uniform(-bound(kp.k12), bound(kp.k12)),
        RNG.uniform(-bound(kp.k2), bound(kp.k2)),
    ])


# the nine planes and two pairs of inexact labels
IMAGE_PAIRS = (*NINE, KappaPair(0.7, -1.3), KappaPair(-2.5, 0.4))


@pytest.mark.parametrize("kp", IMAGE_PAIRS, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_first_kind_cocommutator_images(kp):
    cm = cocommutator_map(kp, rmatrix(DeformationKind.FIRST_KIND, Z))
    for idx, gen in enumerate(GENERATOR_NAMES):
        want = Z * np.array(cocomm_first(kp, gen))
        assert cm[idx].tobytes() == want.tobytes(), gen


@pytest.mark.parametrize("kp", IMAGE_PAIRS, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_second_kind_cocommutator_images(kp):
    cm = cocommutator_map(kp, rmatrix(DeformationKind.SECOND_KIND, Z))
    for idx, gen in enumerate(GENERATOR_NAMES):
        want = Z * np.array(cocomm_second(kp, gen))
        assert cm[idx].tobytes() == want.tobytes(), gen


@pytest.mark.parametrize("kind", DeformationKind, ids=lambda k: k.value)
@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_cocycle_and_dual_jacobi(kp, kind):
    cocycle, jacobi, _ = bialgebra_check(kp, cocommutator_map(kp, rmatrix(kind, Z)))
    assert cocycle < 1e-13
    assert jacobi < 1e-13


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_first_kind_dual_brackets(kp):
    _, _, f = bialgebra_check(kp, cocommutator_map(kp, rmatrix(DeformationKind.FIRST_KIND, Z)))
    zk2 = Z * kp.k2
    assert np.allclose(f[0, 1], [0.0, zk2, 0.0], atol=1e-15)
    assert np.allclose(f[0, 2], [0.0, 0.0, zk2], atol=1e-15)
    assert np.allclose(f[1, 2], [0.0, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_second_kind_dual_brackets(kp):
    _, _, f = bialgebra_check(kp, cocommutator_map(kp, rmatrix(DeformationKind.SECOND_KIND, Z)))
    assert np.allclose(f[0, 1], [Z, 0.0, 0.0], atol=1e-15)
    assert np.allclose(f[0, 2], [0.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(f[1, 2], [0.0, 0.0, -Z], atol=1e-15)


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_schouten_and_mcybe(kp):
    r1 = rmatrix(DeformationKind.FIRST_KIND, Z)
    r2 = rmatrix(DeformationKind.SECOND_KIND, Z)
    assert schouten(kp, r1) == pytest.approx(Z * Z * kp.k2, abs=1e-15)
    assert schouten(kp, r2) == pytest.approx(Z * Z, abs=1e-15)
    assert mcybe_defect(kp, r1) < 1e-13
    assert mcybe_defect(kp, r2) < 1e-13


def test_schouten_whose_sum_overflows_is_finite_without_a_warning():
    # the coefficient z^2 = 1.69e308 is finite, but the alternating sum
    # overflows before its division by 6; tier-1 turns a RuntimeWarning into
    # an error
    assert schouten(KappaPair(0.0, 0.0), rmatrix(DeformationKind.SECOND_KIND, 1.3e154)) == 1.3e154 * 1.3e154


def test_schouten_keeps_the_bits_of_the_one_sum_wherever_it_is_finite():
    labels = (0.0, -0.0, 1.0, -1.0, 0.7, -1.3, 1e-300, 1e150, -1e308)
    zs = (0.1, 1.3, 1e-300, 1e154, 1.3e154, 2e154, 1e200, 1e308)
    r = np.array([rmatrix(kind, z) for z in zs for kind in DeformationKind])
    for k1, k2 in itertools.product(labels, labels):
        t = _schouten_tensor(KappaPair(k1, k2), r)
        terms = np.array([sign * t[(..., *perm)] for perm, sign in _EPSILON3.items()])
        with np.errstate(over="ignore", invalid="ignore"):
            one_sum = sum(terms) / 6.0
        got = schouten(KappaPair(k1, k2), r)
        kept = np.isfinite(one_sum)
        assert got[kept].tobytes() == one_sum[kept].tobytes(), (k1, k2)
        # a row whose one sum overflows is finite where its six terms are
        assert np.isfinite(got[~kept]).tolist() == np.isfinite(terms[:, ~kept]).all(axis=0).tolist(), (k1, k2)


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_first_kind_coisotropy_pattern(kp):
    cm = cocommutator_map(kp, rmatrix(DeformationKind.FIRST_KIND, Z))
    v01 = coisotropy_check(kp, cm, "J01")
    assert v01 is CoisotropyVerdict.POISSON_SUBGROUP
    v02 = coisotropy_check(kp, cm, "J02")
    v12 = coisotropy_check(kp, cm, "J12")
    if kp.k2 == 0.0:
        # cocommutator vanishes identically, every subalgebra is Poisson
        assert v02 is CoisotropyVerdict.POISSON_SUBGROUP
        assert v12 is CoisotropyVerdict.POISSON_SUBGROUP
    else:
        assert v02 is CoisotropyVerdict.COISOTROPIC
        assert v12 is CoisotropyVerdict.COISOTROPIC


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_second_kind_coisotropy_pattern(kp):
    cm = cocommutator_map(kp, rmatrix(DeformationKind.SECOND_KIND, Z))
    verdicts = [coisotropy_check(kp, cm, gen) for gen in GENERATOR_NAMES]
    assert verdicts == [
        CoisotropyVerdict.COISOTROPIC,
        CoisotropyVerdict.POISSON_SUBGROUP,
        CoisotropyVerdict.COISOTROPIC,
    ]


def test_an_image_on_the_pair_without_its_generator_fails_coisotropy():
    # each image lies on the one wedge pair that does not contain its generator
    cm = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1e-12, 0.0, 0.0]])
    kp = KappaPair(1.0, 1.0)
    for gen in GENERATOR_NAMES:
        assert coisotropy_check(kp, cm, gen) is CoisotropyVerdict.FAILS, gen


def test_coisotropy_of_an_unknown_generator_is_rejected():
    cm = np.zeros((3, 3))
    with pytest.raises(ValueError, match="unknown generator 'J00'"):
        coisotropy_check(KappaPair(1.0, 1.0), cm, "J00")


def test_invariant_fields_match_numeric_differentials():
    for kp in (KappaPair(1.0, 1.0), KappaPair(0.0, -1.0), KappaPair(-1.0, 1.0)):
        for _ in range(4):
            x = small_coords(kp)
            closed = _invariant_vector_fields(kp, *x, ktrig)
            numeric = _invariant_fields(kp, x, ktrig)
            assert np.max(np.abs(closed.left - numeric.left)) < 1e-8
            assert np.max(np.abs(closed.right - numeric.right)) < 1e-8


def reference_fields_numeric(kp: KappaPair, x: np.ndarray, step: float = TRANSLATION_STEP) -> InvariantFields:
    """The oracle written through validated GroupElements at every product."""
    g0 = group_from_coords(kp, GroupCoordinates(*x))
    left = np.zeros((3, 3))
    right = np.zeros((3, 3))
    for i, name in enumerate(GENERATOR_NAMES):
        plus = GroupElement(_one_param(kp, name, step, ktrig), kp)
        minus = GroupElement(_one_param(kp, name, -step, ktrig), kp)
        left[i] = (
            coords_from_group(kp, g0 @ plus).as_array() - coords_from_group(kp, g0 @ minus).as_array()
        ) / (2.0 * step)
        right[i] = (
            coords_from_group(kp, plus @ g0).as_array() - coords_from_group(kp, minus @ g0).as_array()
        ) / (2.0 * step)
    return InvariantFields(left, right)


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_numeric_fields_equal_the_validated_reference(kp):
    for _ in range(3):
        x = small_coords(kp)
        iv = _invariant_fields(kp, x, ktrig)
        ref = reference_fields_numeric(kp, x)
        assert np.array_equal(iv.left, ref.left)
        assert np.array_equal(iv.right, ref.right)


@pytest.mark.parametrize("kp", NONDEGENERATE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_sklyanin_closed_forms_match_reference(kp):
    for _ in range(10):
        x = small_coords(kp)
        want = sklyanin_rows(kp, Z, *x)
        p = _sklyanin_closed(kp, Z, x, ktrig)
        got = (p[0, 1], p[0, 2], p[1, 2])
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12


@pytest.mark.parametrize("kp", NONDEGENERATE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_sklyanin_closed_vs_numeric_oracle(kp):
    r = rmatrix(DeformationKind.FIRST_KIND, Z)
    for _ in range(4):
        x = small_coords(kp)
        closed = _sklyanin_closed(kp, Z, x, ktrig)
        numeric = sklyanin_numeric(r, _invariant_fields(kp, x, ktrig))
        assert np.abs(closed - numeric).max() < 1e-6


def test_sklyanin_antisymmetry_and_leibniz_sanity():
    kp = KappaPair(1.0, 1.0)
    r = rmatrix(DeformationKind.FIRST_KIND, Z)
    iv = _invariant_vector_fields(kp, 0.2, 0.3, -0.4, ktrig)
    p = sklyanin_numeric(r, iv)
    assert np.abs(p + p.T).max() < 1e-9


def test_bialgebra_sum_that_overflows_fails_its_defect():
    # at z = 1e308 the cocycle holds exactly, while the dual-Jacobi sum
    # overflows; under tier-1's warning filter an unhandled overflow fails here
    kp = KappaPair(1.0, 1.0)
    cocycle, jacobi, _ = bialgebra_check(kp, cocommutator_map(kp, rmatrix(DeformationKind.FIRST_KIND, 1e308)))
    assert cocycle == 0.0
    assert not math.isfinite(jacobi)


def test_numeric_bracket_that_overflows_is_a_domain_error():
    fields = InvariantFields(np.full((3, 3), 1e160), np.eye(3))
    with pytest.raises(ChartDomainError, match="overflows"):
        sklyanin_numeric(rmatrix(DeformationKind.FIRST_KIND, 1.0), fields)


def test_sklyanin_brackets_scale_linearly_in_z():
    kp = KappaPair(-1.0, 1.0)
    x = np.array([0.2, 0.3, -0.4])
    one = _sklyanin_closed(kp, 0.1, x, ktrig)[0, 1]
    two = _sklyanin_closed(kp, 0.2, x, ktrig)[0, 1]
    assert two == pytest.approx(2.0 * one, rel=1e-12)


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_phs_bracket_closed_forms(kp):
    for _ in range(6):
        a1 = RNG.uniform(-0.5, 0.5)
        a2 = RNG.uniform(-0.5, 0.5)
        first = phs_points_bracket(kp, Z, DeformationKind.FIRST_KIND, a1, a2)
        second = phs_points_bracket(kp, Z, DeformationKind.SECOND_KIND, a1, a2)
        assert first == pytest.approx(phs_first(kp, Z, a2), abs=1e-14)
        assert second == pytest.approx(phs_second(kp, Z, a1), abs=1e-14)


def test_phs_first_kind_vanishes_on_degenerate_planes():
    for k1 in (1.0, 0.0, -1.0):
        kp = KappaPair(k1, 0.0)
        assert phs_points_bracket(kp, Z, DeformationKind.FIRST_KIND, 0.3, 0.4) == 0.0


def test_rmatrix_layout():
    r1 = rmatrix(DeformationKind.FIRST_KIND, Z)
    r2 = rmatrix(DeformationKind.SECOND_KIND, Z)
    assert r1.shape == r2.shape == (3,)
    # both generators deform along a single wedge direction
    assert np.count_nonzero(r1) == 1
    assert np.count_nonzero(r2) == 1


def test_first_kind_phs_bracket_at_a_pole_is_a_chart_domain_error():
    with pytest.raises(ChartDomainError, match=r"^first-kind bracket undefined here: tk\("):
        phs_points_bracket(KappaPair(1.0, 1.0), 0.1, DeformationKind.FIRST_KIND, 0.0, math.pi / 2)


def test_closed_forms_raise_where_the_a2_cosine_factor_vanishes():
    kp, x = KappaPair(1.0, 1.0), np.array([0.2, math.pi / 2, 0.3])
    with pytest.raises(ChartDomainError, match="invariant fields diverge"):
        _invariant_vector_fields(kp, *x, ktrig)
    with pytest.raises(ChartDomainError, match="bracket coefficients diverge"):
        _sklyanin_closed(kp, 0.1, x, ktrig)
