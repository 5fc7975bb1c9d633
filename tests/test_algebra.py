"""Lie algebra family: brackets, Jacobi, Casimir, matrix representation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgeom import (
    BASIS,
    GENERATOR_NAMES,
    NORMALIZED_PAIRS,
    AlgebraElement,
    BadSpeedError,
    KappaPair,
    bracket,
    casimir_coeffs,
    classify,
    kappa_from_kinematics,
    metric_matrix,
    rep,
    rep_basis,
    structure_tensor,
)

from helpers import CLASSIFICATION, KINEMATICAL, NINE, bracket_coeffs, casimir_coefficients

coeff_st = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
kappa_st = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def as_vec(x: AlgebraElement) -> np.ndarray:
    return x.as_array()


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_basis_brackets_match_reference(kp):
    for i, ni in enumerate(GENERATOR_NAMES):
        for j, nj in enumerate(GENERATOR_NAMES):
            got = bracket(kp, BASIS[i], BASIS[j]).as_array()
            want = np.array(bracket_coeffs(kp, ni, nj))
            assert np.allclose(got, want, atol=0.0), (ni, nj, got, want)


@given(k1=kappa_st, k2=kappa_st, cx=st.tuples(coeff_st, coeff_st, coeff_st),
       cy=st.tuples(coeff_st, coeff_st, coeff_st), cz=st.tuples(coeff_st, coeff_st, coeff_st))
@settings(max_examples=150, deadline=None)
def test_jacobi_identity(k1, k2, cx, cy, cz):
    kp = KappaPair(k1, k2)
    x, y, z = AlgebraElement(*cx), AlgebraElement(*cy), AlgebraElement(*cz)
    total = (
        bracket(kp, x, bracket(kp, y, z)).as_array()
        + bracket(kp, y, bracket(kp, z, x)).as_array()
        + bracket(kp, z, bracket(kp, x, y)).as_array()
    )
    scale = 1.0 + max(abs(v) for c in (cx, cy, cz) for v in c) ** 3 * (1 + abs(k1)) * (1 + abs(k2))
    assert np.max(np.abs(total)) < 1e-12 * scale


@given(k1=kappa_st, k2=kappa_st)
@settings(max_examples=50, deadline=None)
def test_bracket_antisymmetry_on_basis(k1, k2):
    kp = KappaPair(k1, k2)
    for x in BASIS:
        for y in BASIS:
            fwd = bracket(kp, x, y).as_array()
            rev = bracket(kp, y, x).as_array()
            assert np.array_equal(fwd, -rev)


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_casimir_coefficients(kp):
    assert casimir_coeffs(kp) == casimir_coefficients(kp)


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_casimir_commutes_in_rep(kp):
    c2, c1, c0 = casimir_coeffs(kp)
    mats = [rep(kp, x) for x in BASIS]
    cas = c2 * mats[0] @ mats[0] + c1 * mats[1] @ mats[1] + c0 * mats[2] @ mats[2]
    for m in mats:
        assert np.max(np.abs(cas @ m - m @ cas)) < 1e-12


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_rep_is_bracket_homomorphism(kp):
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = AlgebraElement(*rng.uniform(-2, 2, 3))
        y = AlgebraElement(*rng.uniform(-2, 2, 3))
        commutator = rep(kp, x) @ rep(kp, y) - rep(kp, y) @ rep(kp, x)
        assert np.max(np.abs(commutator - rep(kp, bracket(kp, x, y)))) < 1e-12


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_rep_infinitesimal_metricity(kp):
    # X^T I + I X = 0 for the invariant bilinear form I
    I = metric_matrix(kp)
    for x in BASIS:
        m = rep(kp, x)
        assert np.max(np.abs(m.T @ I + I @ m)) < 1e-15


def test_rep_is_finite_where_k1_k2_overflows():
    # J01 has exact-zero coefficients on J02, whose image holds -k1 k2 = -inf
    kp = KappaPair(1e200, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = rep(kp, BASIS[0])
        stack = rep(kp, np.eye(3))
    assert np.isfinite(m).all()
    assert np.array_equal(m, rep_basis(kp)[0])
    assert np.array_equal(stack[0], m) and np.array_equal(stack[2], rep_basis(kp)[2])


@given(
    k=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
    c=st.lists(st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-1e3, 1e3), min_size=6, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_rep_keeps_its_values_on_finite_inputs(k, c):
    # the sum over the basis images, up to the sign of a zero
    kp = KappaPair(*k)
    x = np.reshape(c, (2, 3))
    j01, j02, j12 = rep_basis(kp)
    want = x[:, 0, None, None] * j01 + x[:, 1, None, None] * j02 + x[:, 2, None, None] * j12
    np.testing.assert_array_equal(rep(kp, x), want)
    np.testing.assert_array_equal(rep(kp, AlgebraElement(*c[:3])), want[0])


def test_structure_tensor_contracts_like_bracket():
    for kp in (*NORMALIZED_PAIRS, KappaPair(0.7, -1.3)):
        # reference: the tensor assembled from the nine basis brackets
        want = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                want[i, j, :] = bracket(kp, BASIS[i], BASIS[j]).as_array()
        assert np.array_equal(structure_tensor(kp), want)

    kp = KappaPair(0.7, -1.3)
    t = structure_tensor(kp)
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, 3)
    y = rng.uniform(-1, 1, 3)
    via_tensor = np.einsum("ijk,i,j->k", t, x, y)
    direct = bracket(kp, AlgebraElement(*x), AlgebraElement(*y)).as_array()
    assert np.max(np.abs(via_tensor - direct)) < 1e-14


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_classification_table(kp):
    label = classify(kp)
    name, group, (h0, h01, h02) = CLASSIFICATION[kp.signs()]
    assert label.name.value == name
    assert label.group_name == group
    assert (label.h0, label.h01, label.h02) == (h0, h01, h02)
    assert label.kinematical_name == KINEMATICAL.get(kp.signs())


def test_classification_ignores_scale():
    assert classify(KappaPair(0.04, -2.5)).name == classify(KappaPair(1.0, -1.0)).name


def test_normalized_pairs_cover_all_sign_patterns():
    assert len(NORMALIZED_PAIRS) == 9
    assert {kp.signs() for kp in NORMALIZED_PAIRS} == set(CLASSIFICATION)


def test_zero_speed_has_no_geometry():
    with pytest.raises(BadSpeedError, match="c = 0"):
        kappa_from_kinematics(0.0, 0.0)


# c * c underflows to 0.0 at 1e-200, and -1/c**2 overflows a double at 1e-160
@pytest.mark.parametrize("c", [1e-160, -1e-200, 1e-200])
def test_a_speed_with_no_finite_k2_has_no_geometry(c):
    with pytest.raises(BadSpeedError, match=f"c = {c!r} gives no finite k2"):
        kappa_from_kinematics(1.0, c)


def test_kinematical_parameters():
    kp = kappa_from_kinematics(1.0, 3.0)
    assert kp.k1 == -1.0
    assert kp.k2 == pytest.approx(-1.0 / 9.0)
    # an infinite speed is the nonrelativistic limit
    assert kappa_from_kinematics(-1.0, math.inf) == KappaPair(1.0, 0.0)
