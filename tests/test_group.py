"""Motion groups: exponentials, invariance, coordinates, actions."""

import math

import numpy as np
import pytest

from ckgeom import (
    BASIS,
    GENERATOR_NAMES,
    Ambient,
    ConvergenceError,
    GroupCoordinates,
    GroupElement,
    KappaPair,
    act,
    ambient_defect,
    coords_from_group,
    exp_one_param,
    expm_series,
    group_from_coords,
    invariant_fields_numeric,
    metric_matrix,
    rep,
)

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
        closed = exp_one_param(kp, gen, t).m
        idx = GENERATOR_NAMES.index(gen)
        series = expm_series(t * rep(kp, BASIS[idx]))
        assert np.max(np.abs(closed - series)) < 1e-12


def test_exp_j01_rotates_in_the_01_plane():
    # closed form written independently, first kind of rotation block
    kp = KappaPair(1.0, -1.0)
    t = 0.73
    got = exp_one_param(kp, "J01", t).m
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
    got = exp_one_param(kp, "J12", t).m
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
        moved = act(kp, g, origin)
        assert ambient_defect(kp, moved) < 1e-10


def test_action_moves_the_origin_by_the_translation_part():
    kp = KappaPair(1.0, 1.0)
    a1 = 0.6
    g = exp_one_param(kp, "J01", a1)
    moved = act(kp, g, np.array([1.0, 0.0, 0.0]))
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


def test_group_element_rejects_a_non_3x3_matrix():
    with pytest.raises(ValueError):
        GroupElement(np.eye(2), KappaPair(1.0, 1.0))


def test_product_over_different_labels_is_rejected():
    g = exp_one_param(KappaPair(1.0, 1.0), "J01", 0.3)
    h = exp_one_param(KappaPair(-1.0, 1.0), "J01", 0.3)
    with pytest.raises(ValueError):
        g @ h


def test_exponential_of_a_non_finite_parameter_is_rejected():
    with pytest.raises(ValueError):
        exp_one_param(KappaPair(1.0, 1.0), "J01", math.nan)


def test_numeric_invariant_fields_reject_non_finite_coordinates():
    with pytest.raises(ValueError):
        invariant_fields_numeric(KappaPair(1.0, 1.0), GroupCoordinates(math.nan, 0.0, 0.0))


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
