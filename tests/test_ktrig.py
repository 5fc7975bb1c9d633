"""Label-dependent trigonometry: closed values, identities, inversion."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckgeom import ChartDomainError, OffCurveError, PoleError, ck, ck_array, half_period, kinv, sk, sk_array, tk, vk

from helpers import ref_ck, ref_sk, ref_vk

KAPPAS = [-1.0, -0.5, 0.0, 0.5, 1.0]

kappa_st = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
x_st = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("x", [-2.0, -0.7, 0.0, 0.3, 1.9])
def test_matches_reference_forms(kappa, x):
    assert ck(kappa, x) == pytest.approx(ref_ck(kappa, x), abs=1e-15)
    assert sk(kappa, x) == pytest.approx(ref_sk(kappa, x), abs=1e-15)
    assert vk(kappa, x) == pytest.approx(ref_vk(kappa, x), abs=1e-14)


@given(kappa=kappa_st, x=x_st)
@settings(max_examples=200, deadline=None)
def test_pythagorean_identity(kappa, x):
    c2 = ck(kappa, x) ** 2
    s2 = abs(kappa) * sk(kappa, x) ** 2
    scale = 1.0 + c2 + s2
    assert abs(ck(kappa, x) ** 2 + kappa * sk(kappa, x) ** 2 - 1.0) < 1e-12 * scale


@given(kappa=kappa_st, x=x_st, y=x_st)
@settings(max_examples=200, deadline=None)
def test_addition_formulas(kappa, x, y):
    lhs_c = ck(kappa, x + y)
    rhs_c = ck(kappa, x) * ck(kappa, y) - kappa * sk(kappa, x) * sk(kappa, y)
    lhs_s = sk(kappa, x + y)
    rhs_s = sk(kappa, x) * ck(kappa, y) + ck(kappa, x) * sk(kappa, y)
    scale = 1.0 + abs(lhs_c) + abs(lhs_s) + abs(kappa * sk(kappa, x) * sk(kappa, y))
    assert abs(lhs_c - rhs_c) < 1e-11 * scale
    assert abs(lhs_s - rhs_s) < 1e-11 * scale


@given(kappa=kappa_st, x=x_st)
@settings(max_examples=100, deadline=None)
def test_versed_relation(kappa, x):
    # ck + kappa vk = 1
    assert abs(ck(kappa, x) + kappa * vk(kappa, x) - 1.0) < 1e-12


@given(kappa=kappa_st, x=x_st)
@settings(max_examples=100, deadline=None)
def test_parity(kappa, x):
    assert ck(kappa, -x) == pytest.approx(ck(kappa, x), abs=1e-15)
    assert sk(kappa, -x) == pytest.approx(-sk(kappa, x), abs=1e-15)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_derivatives_by_central_difference(kappa):
    h = 1e-6
    for x in [-1.4, -0.3, 0.0, 0.8, 2.1]:
        d_sk = (sk(kappa, x + h) - sk(kappa, x - h)) / (2 * h)
        d_ck = (ck(kappa, x + h) - ck(kappa, x - h)) / (2 * h)
        d_vk = (vk(kappa, x + h) - vk(kappa, x - h)) / (2 * h)
        assert abs(d_sk - ck(kappa, x)) < 1e-9
        assert abs(d_ck + kappa * sk(kappa, x)) < 1e-9
        assert abs(d_vk - sk(kappa, x)) < 1e-9


def test_small_label_branch_agrees_with_closed_form():
    # just below and above the series cutoff the two evaluations agree
    for kappa in (9e-13, -9e-13):
        for x in (0.5, 1.5, 3.0):
            exact_c = math.cos(math.sqrt(abs(kappa)) * x) if kappa > 0 else math.cosh(
                math.sqrt(abs(kappa)) * x
            )
            assert abs(ck(kappa, x) - exact_c) < 1e-15
            assert abs(sk(kappa, x) - ref_sk(kappa, x)) < 1e-15


def test_tangent_pole_raises():
    with pytest.raises(PoleError):
        tk(1.0, math.pi / 2)


def test_half_period():
    assert half_period(1.0) == pytest.approx(math.pi)
    assert half_period(4.0) == pytest.approx(math.pi / 2)
    assert math.isinf(half_period(0.0))
    assert math.isinf(half_period(-1.0))


@given(
    kappa=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    x=st.floats(min_value=-1.2, max_value=1.2, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_kinv_roundtrip(kappa, x):
    # stay inside one principal branch for positive labels
    if kappa > 0:
        quarter = half_period(kappa) / 2.0
        if abs(x) > 0.9 * quarter:
            return
    recovered = kinv(kappa, sk(kappa, x), ck(kappa, x))
    assert abs(recovered - x) < 1e-10


def test_kinv_rejects_off_curve_points():
    with pytest.raises(OffCurveError, match=re.escape("kinv(1.0): pair (c=5.0, s=5.0) misses the unit curve by 4.900e+01")):
        kinv(1.0, 5.0, 5.0)
    # on the curve c**2 - s**2 = 1, but on the branch c < 0
    c = -math.cosh(0.5)
    with pytest.raises(OffCurveError, match=re.escape(f"kinv(-1.0): c={c!r} lies on the branch not connected to the identity")):
        kinv(-1.0, math.sinh(0.5), c)


@pytest.mark.parametrize("kappa", [*KAPPAS, -2.7, 3.1, 1e-13, -1e-13])
def test_array_forms_match_the_scalar_pair_bit_for_bit(kappa):
    x = np.append(np.linspace(-3.0, 3.0, 601), -0.0)
    for scalar, batched in ((ck, ck_array), (sk, sk_array)):
        want = np.array([scalar(kappa, v) for v in x.tolist()])
        assert batched(kappa, x).tobytes() == want.tobytes()


@pytest.mark.parametrize("kappa", [-1.0, -2.7])
def test_hyperbolic_overflow_is_a_domain_error(kappa):
    for scalar in (ck, sk):
        with pytest.raises(ChartDomainError):
            scalar(kappa, -800.0)
    x = np.array([0.5, 800.0, -800.0])
    assert ck_array(kappa, x).tolist() == [ck(kappa, 0.5), math.inf, math.inf]
    assert sk_array(kappa, x).tolist() == [sk(kappa, 0.5), math.inf, -math.inf]


def test_sinh_quotient_overflow_is_a_domain_error():
    # with -kappa < 1, sinh(rk x) / rk overflows where sinh(rk x) does not
    assert math.isfinite(math.sinh(0.5 * 1420.9))
    with pytest.raises(ChartDomainError):
        sk(-0.25, 1420.9)
    with pytest.raises(ChartDomainError):
        sk(-0.25, -1420.9)
    assert sk_array(-0.25, np.array([1420.9, -1420.9])).tolist() == [math.inf, -math.inf]
