"""Poisson-Lie layer: cocommutators, bialgebra checks, Sklyanin brackets."""

import math

import numpy as np
import pytest

from ckgeom import (
    GENERATOR_NAMES,
    Bivector,
    CoisotropyVerdict,
    DeformationKind,
    GroupCoordinates,
    InvariantFields,
    KappaPair,
    bialgebra_check,
    cocommutator_map,
    coisotropy_check,
    coords_from_group,
    exp_one_param,
    group_from_coords,
    invariant_fields_numeric,
    invariant_vector_fields,
    mcybe_defect,
    phs_points_bracket,
    rmatrix,
    schouten,
    sklyanin_closed,
    sklyanin_numeric,
)
from ckgeom.poisson import TRANSLATION_STEP

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


def small_coords(kp: KappaPair) -> GroupCoordinates:
    def bound(label):
        if label > 1e-12:
            return 0.35 * math.pi / math.sqrt(label)
        return 1.0

    return GroupCoordinates(
        RNG.uniform(-bound(kp.k1), bound(kp.k1)),
        RNG.uniform(-bound(kp.k12), bound(kp.k12)),
        RNG.uniform(-bound(kp.k2), bound(kp.k2)),
    )


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_first_kind_cocommutator_images(kp):
    cm = cocommutator_map(kp, rmatrix(DeformationKind.FIRST_KIND, Z))
    for idx, gen in enumerate(GENERATOR_NAMES):
        want = Z * np.array(cocomm_first(kp, gen))
        assert np.array_equal(cm.image(idx).components(), want), gen


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_second_kind_cocommutator_images(kp):
    cm = cocommutator_map(kp, rmatrix(DeformationKind.SECOND_KIND, Z))
    for idx, gen in enumerate(GENERATOR_NAMES):
        want = Z * np.array(cocomm_second(kp, gen))
        assert np.array_equal(cm.image(idx).components(), want), gen


@pytest.mark.parametrize("kind", DeformationKind, ids=lambda k: k.value)
@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_cocycle_and_dual_jacobi(kp, kind):
    cm = cocommutator_map(kp, rmatrix(kind, Z))
    report = bialgebra_check(kp, cm)
    assert report.cocycle_defect < 1e-13
    assert report.dual_jacobi_defect < 1e-13


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_first_kind_dual_brackets(kp):
    cm = cocommutator_map(kp, rmatrix(DeformationKind.FIRST_KIND, Z))
    rep = bialgebra_check(kp, cm)
    zk2 = Z * kp.k2
    assert np.allclose(rep.dual_bracket_coeffs(0, 1), [0.0, zk2, 0.0], atol=1e-15)
    assert np.allclose(rep.dual_bracket_coeffs(0, 2), [0.0, 0.0, zk2], atol=1e-15)
    assert np.allclose(rep.dual_bracket_coeffs(1, 2), [0.0, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_second_kind_dual_brackets(kp):
    cm = cocommutator_map(kp, rmatrix(DeformationKind.SECOND_KIND, Z))
    rep = bialgebra_check(kp, cm)
    assert np.allclose(rep.dual_bracket_coeffs(0, 1), [Z, 0.0, 0.0], atol=1e-15)
    assert np.allclose(rep.dual_bracket_coeffs(0, 2), [0.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(rep.dual_bracket_coeffs(1, 2), [0.0, 0.0, -Z], atol=1e-15)


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_schouten_and_mcybe(kp):
    r1 = rmatrix(DeformationKind.FIRST_KIND, Z)
    r2 = rmatrix(DeformationKind.SECOND_KIND, Z)
    assert schouten(kp, r1).coefficient == pytest.approx(Z * Z * kp.k2, abs=1e-15)
    assert schouten(kp, r2).coefficient == pytest.approx(Z * Z, abs=1e-15)
    assert mcybe_defect(kp, r1) < 1e-13
    assert mcybe_defect(kp, r2) < 1e-13


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


def test_invariant_fields_match_numeric_differentials():
    for kp in (KappaPair(1.0, 1.0), KappaPair(0.0, -1.0), KappaPair(-1.0, 1.0)):
        for _ in range(4):
            gc = small_coords(kp)
            closed = invariant_vector_fields(kp, gc)
            numeric = invariant_fields_numeric(kp, gc)
            assert np.max(np.abs(closed.left - numeric.left)) < 1e-8
            assert np.max(np.abs(closed.right - numeric.right)) < 1e-8


def reference_fields_numeric(
    kp: KappaPair, gc: GroupCoordinates, step: float = TRANSLATION_STEP
) -> InvariantFields:
    """The oracle written through validated GroupElements at every product."""
    g0 = group_from_coords(kp, gc)
    left = np.zeros((3, 3))
    right = np.zeros((3, 3))
    for i, name in enumerate(GENERATOR_NAMES):
        plus = exp_one_param(kp, name, step)
        minus = exp_one_param(kp, name, -step)
        left[i] = (
            coords_from_group(kp, g0 @ plus).as_array() - coords_from_group(kp, g0 @ minus).as_array()
        ) / (2.0 * step)
        right[i] = (
            coords_from_group(kp, plus @ g0).as_array() - coords_from_group(kp, minus @ g0).as_array()
        ) / (2.0 * step)
    return InvariantFields(left, right)


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_numeric_fields_equal_the_validated_reference(kp):
    r = rmatrix(DeformationKind.FIRST_KIND, Z)
    for _ in range(3):
        gc = small_coords(kp)
        iv = invariant_fields_numeric(kp, gc)
        ref = reference_fields_numeric(kp, gc)
        assert np.array_equal(iv.left, ref.left)
        assert np.array_equal(iv.right, ref.right)
        for f, g in (("a1", "a2"), ("a1", "xi"), ("a2", "xi"), ("xi", "a1")):
            want = sklyanin_numeric(kp, r, f, g, gc, fields="numeric")
            assert sklyanin_numeric(kp, r, f, g, gc, fields=iv) == want


def test_unknown_field_mode_is_rejected():
    kp = KappaPair(1.0, 1.0)
    r = rmatrix(DeformationKind.FIRST_KIND, Z)
    with pytest.raises(ValueError):
        sklyanin_numeric(kp, r, "a1", "a2", GroupCoordinates(0.1, 0.2, 0.3), fields="series")


@pytest.mark.parametrize("kp", NONDEGENERATE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_sklyanin_closed_forms_match_reference(kp):
    for _ in range(10):
        gc = small_coords(kp)
        want = sklyanin_rows(kp, Z, gc.a1, gc.a2, gc.xi)
        got = (
            sklyanin_closed(kp, Z, ("a1", "a2"), gc),
            sklyanin_closed(kp, Z, ("a1", "xi"), gc),
            sklyanin_closed(kp, Z, ("a2", "xi"), gc),
        )
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12


@pytest.mark.parametrize("kp", NONDEGENERATE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_sklyanin_closed_vs_numeric_oracle(kp):
    r = rmatrix(DeformationKind.FIRST_KIND, Z)
    for _ in range(4):
        gc = small_coords(kp)
        for pair in (("a1", "a2"), ("a1", "xi"), ("a2", "xi")):
            closed = sklyanin_closed(kp, Z, pair, gc)
            numeric = sklyanin_numeric(kp, r, pair[0], pair[1], gc, fields="numeric")
            assert abs(closed - numeric) < 1e-6


def test_sklyanin_antisymmetry_and_leibniz_sanity():
    kp = KappaPair(1.0, 1.0)
    r = rmatrix(DeformationKind.FIRST_KIND, Z)
    gc = GroupCoordinates(0.2, 0.3, -0.4)
    ab = sklyanin_numeric(kp, r, "a1", "a2", gc)
    ba = sklyanin_numeric(kp, r, "a2", "a1", gc)
    assert abs(ab + ba) < 1e-9


def test_sklyanin_brackets_scale_linearly_in_z():
    kp = KappaPair(-1.0, 1.0)
    gc = GroupCoordinates(0.2, 0.3, -0.4)
    one = sklyanin_closed(kp, 0.1, ("a1", "a2"), gc)
    two = sklyanin_closed(kp, 0.2, ("a1", "a2"), gc)
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
    assert isinstance(r1, Bivector) and isinstance(r2, Bivector)
    # both generators deform along a single wedge direction
    assert np.count_nonzero(r1.components()) == 1
    assert np.count_nonzero(r2.components()) == 1
