"""Motion groups: exponentials, invariance, coordinates, actions."""

import math

import numpy as np
import pytest

from ckgeom import (
    BASIS,
    GENERATOR_NAMES,
    Ambient,
    ChartDomainError,
    ConvergenceError,
    GroupCoordinates,
    GroupElement,
    KappaPair,
    coords_from_group,
    expm_series,
    group_from_coords,
    ktrig,
    metric_matrix,
    rep,
)
from ckgeom.group import _act, _ambient_defect_stack, _one_param
from ckgeom.poisson import _invariant_fields

from helpers import NINE, ref_ck, ref_sk

RNG = np.random.default_rng(23)


def random_coords(kp: KappaPair) -> GroupCoordinates:
    def bound(label):
        if label > 1e-12:
            return 0.4 * math.pi / math.sqrt(label)
        return 1.0

    return GroupCoordinates(
        RNG.uniform(-bound(kp.k1), bound(kp.k1)),
        RNG.uniform(-bound(kp.k12), bound(kp.k12)),
        RNG.uniform(-bound(kp.k2), bound(kp.k2)),
    )


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
@pytest.mark.parametrize("gen", GENERATOR_NAMES)
def test_one_parameter_closed_form_matches_series(kp, gen):
    for t in (-1.7, -0.4, 0.0, 0.8, 2.0):
        closed = _one_param(kp, gen, t, ktrig)
        idx = GENERATOR_NAMES.index(gen)
        series = expm_series(t * rep(kp, BASIS[idx]))
        assert np.max(np.abs(closed - series)) < 1e-12


def test_exp_j01_rotates_in_the_01_plane():
    # closed form written independently, first kind of rotation block
    kp = KappaPair(1.0, -1.0)
    t = 0.73
    got = _one_param(kp, "J01", t, ktrig)
    want = np.array(
        [
            [math.cos(t), -math.sin(t), 0.0],
            [math.sin(t), math.cos(t), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert np.max(np.abs(got - want)) < 1e-15


def test_exp_j12_is_a_k2_block():
    kp = KappaPair(1.0, -1.0)
    t = 0.51
    got = _one_param(kp, "J12", t, ktrig)
    want = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cosh(t), math.sinh(t)],
            [0.0, math.sinh(t), math.cosh(t)],
        ]
    )
    assert np.max(np.abs(got - want)) < 1e-15


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_group_elements_preserve_the_bilinear_form(kp):
    I = metric_matrix(kp)
    for _ in range(25):
        g = group_from_coords(kp, random_coords(kp)).m
        assert np.max(np.abs(g.T @ I @ g - I)) < 1e-12


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_coordinate_roundtrip(kp):
    for _ in range(25):
        gc = random_coords(kp)
        g = group_from_coords(kp, gc)
        back = coords_from_group(kp, g)
        assert abs(back.a1 - gc.a1) < 1e-10
        assert abs(back.a2 - gc.a2) < 1e-10
        assert abs(back.xi - gc.xi) < 1e-10


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_action_stays_on_the_surface(kp):
    origin = np.array([1.0, 0.0, 0.0])
    for _ in range(20):
        g = group_from_coords(kp, random_coords(kp))
        moved = _act(kp, g.m, origin, ktrig)
        assert _ambient_defect_stack(kp, moved) < 1e-10


def test_action_moves_the_origin_by_the_translation_part():
    kp = KappaPair(1.0, 1.0)
    a1 = 0.6
    g = _one_param(kp, "J01", a1, ktrig)
    moved = _act(kp, g, np.array([1.0, 0.0, 0.0]), ktrig)
    assert moved == pytest.approx(
        np.array([ref_ck(kp.k1, a1), ref_sk(kp.k1, a1), 0.0]), abs=1e-14
    )


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_identity_coordinates(kp):
    g = group_from_coords(kp, GroupCoordinates(0.0, 0.0, 0.0))
    assert np.array_equal(g.m, np.eye(3))


def test_group_is_closed_under_products():
    kp = KappaPair(-1.0, 1.0)
    I = metric_matrix(kp)
    g = group_from_coords(kp, GroupCoordinates(0.3, -0.2, 0.5)).m
    h = group_from_coords(kp, GroupCoordinates(-0.1, 0.4, -0.3)).m
    gh = g @ h
    assert np.max(np.abs(gh.T @ I @ gh - I)) < 1e-14


def test_group_element_rejects_a_non_finite_matrix():
    m = np.eye(3)
    m[1, 2] = math.nan
    with pytest.raises(ValueError):
        GroupElement(m, KappaPair(1.0, 1.0))


def test_overflowing_product_of_finite_elements_is_a_domain_error():
    # cosh(500) * cosh(500) overflows a double
    kp = KappaPair(-1e6, 1.0)
    g = GroupElement(_one_param(kp, "J01", 0.5, ktrig), kp)
    h = GroupElement(_one_param(kp, "J02", 0.5, ktrig), kp)
    with pytest.raises(ChartDomainError):
        g @ h


def test_group_element_rejects_a_non_3x3_matrix():
    with pytest.raises(ValueError):
        GroupElement(np.eye(2), KappaPair(1.0, 1.0))


def test_product_over_different_labels_is_rejected():
    kp, other = KappaPair(1.0, 1.0), KappaPair(-1.0, 1.0)
    g = GroupElement(_one_param(kp, "J01", 0.3, ktrig), kp)
    h = GroupElement(_one_param(other, "J01", 0.3, ktrig), other)
    with pytest.raises(ValueError):
        g @ h


def test_exponential_of_a_non_finite_parameter_is_rejected():
    with pytest.raises(ValueError):
        group_from_coords(KappaPair(1.0, 1.0), GroupCoordinates(math.nan, 0.0, 0.0))


def test_coordinates_at_the_chart_edge_are_a_domain_error():
    # at a2 = pi/2 the cosine factor of a2 is cos(pi/2) = 6.1e-17
    kp = KappaPair(1.0, 1.0)
    g = group_from_coords(kp, GroupCoordinates(0.3, math.pi / 2, 0.2))
    with pytest.raises(ChartDomainError, match="cosine factor 6.123e-17 of a2 below tolerance 1e-09"):
        coords_from_group(kp, g)


def test_coordinates_that_overflow_are_a_domain_error():
    # g is finite, but its entries near 1e159 overflow when squared
    kp = KappaPair(-1e6, 1.0)
    g = group_from_coords(kp, GroupCoordinates(0.2, 0.17, 0.0))
    with pytest.raises(ChartDomainError, match="not finite"):
        coords_from_group(kp, g)


def test_an_image_that_overflows_is_a_domain_error():
    kp = KappaPair(1.0, 1.0)
    g = GroupElement(np.full((3, 3), 1.5e308), kp)
    with pytest.raises(ChartDomainError, match="overflows"), ktrig.quiet():
        _act(kp, g.m, np.array([0.6, 0.8, 0.0]), ktrig)


def test_quadric_defect_of_a_point_whose_form_overflows_is_infinite():
    with ktrig.quiet():
        assert _ambient_defect_stack(KappaPair(1.0, 1.0), np.array([1e200, 0.0, 0.0])) == math.inf
        assert _ambient_defect_stack(KappaPair(-1.0, 1.0), np.array([1e200, 1e200, 0.0])) == math.inf


@pytest.mark.parametrize(
    "gc, message",
    [
        # cosh(1000 * 0.48) * cosh(1000 * 0.35) overflows the product g
        (GroupCoordinates(0.48, -0.35, 0.0), "overflow the group product"),
        # g is finite, but reading the translates' coordinates squares its entries
        (GroupCoordinates(0.2, 0.17, 0.0), "numeric invariant fields"),
    ],
    ids=["product", "fields"],
)
def test_numeric_invariant_fields_overflow_is_a_domain_error(gc, message):
    with pytest.raises(ChartDomainError, match=message), ktrig.quiet():
        _invariant_fields(KappaPair(-1e6, 1.0), gc.as_array(), ktrig)


@pytest.mark.parametrize(
    "a",
    [
        np.diag([math.inf, 0.0, 0.0]),
        np.diag([math.nan, 0.0, 0.0]),
        # 2**1025 halvings of the norm: the scaling itself overflows
        np.full((3, 3), 1e308),
        # exp(800) overflows while squaring
        np.diag([800.0, 0.0, 0.0]),
    ],
    ids=["inf", "nan", "scaling", "squaring"],
)
def test_series_exponential_overflow_is_a_convergence_error(a):
    with pytest.raises(ConvergenceError):
        expm_series(a)
