"""Stack forms, bit for bit and error for error.

A stack form evaluates N points at once and raises nothing: it returns its
values and the row errors, the exception of each flagged row.  Where a
separate scalar form stays (ktrig, the group exponential and product,
to_ambient, ambient_defect), the stack form must flag every point where
the scalar form raises, with an exception of the same type and text, and
elsewhere equal the scalar values bit for bit (nan where the scalar value
is nan).  Where the scalar form is the one-row stack call
(coords_from_group, invariant_fields_numeric, sklyanin_closed, act), row i
of an N-row call must equal the one-row call of row i.  The sweep relies
on both: it evaluates a batch and raises the flagged row's exception at
that sample.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckgeom import (
    BASIS,
    GENERATOR_NAMES,
    AlgebraElement,
    ChartDomainError,
    ConvergenceError,
    DeformationKind,
    GeometryError,
    GroupCoordinates,
    InvariantFields,
    KappaPair,
    ambient_defect,
    bracket,
    ck,
    expm_series,
    group_from_coords,
    kinv,
    kinv_array,
    rep,
    rmatrix,
    sk,
    sklyanin_numeric,
)
from ckgeom import checks, group, poisson
from ckgeom.algebra import _bracket_coeffs

from helpers import same_error

# normalized, Taylor-branch (|kappa| < 1e-12), off-normal and overflowing labels
LABELS = [1.0, 0.0, -1.0, 9e-13, -9e-13, 0.7, -1.3, 2.5, -30.0, 1e6, -1e6]

label_st = st.sampled_from(LABELS) | st.floats(-4.0, 4.0)
kp_st = st.builds(KappaPair, label_st, label_st)
# pi/2 puts a2 on the chart edge at k1 k2 = 1
coord_st = st.sampled_from([0.0, -0.0, 1.0, -math.pi, math.pi / 2, math.pi]) | st.floats(-4.0, 4.0)
points_st = st.lists(st.tuples(coord_st, coord_st, coord_st), min_size=1, max_size=6).map(np.array)

SETTINGS = settings(max_examples=60, deadline=None)


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    equal = (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))
    return a.shape == b.shape and bool(equal.all())


def scalar(fn, *args):
    """fn(*args), or the GeometryError it raises."""
    try:
        return fn(*args)
    except GeometryError as exc:
        return exc


def assert_rows_are_one_row_calls(call, n):
    """call(rows) is a stack call on the rows selected by the slice rows;
    row i of the n-row call equals the one-row call of row i, bit for bit
    and error for error."""
    values, errors = call(slice(None))
    for i in range(n):
        one, one_errors = call(slice(i, i + 1))
        assert same_bits(values[i], one[0])
        assert same_error(errors.get(i), one_errors.get(0)), (errors.get(i), one_errors.get(0))


def assert_matches(stack_values, errors, scalar_results, value_of=lambda r: r):
    """The row errors hold the scalar form's exception wherever it raised,
    and only there; elsewhere the values agree."""
    for i, (got, want) in enumerate(zip(stack_values, scalar_results)):
        if isinstance(want, GeometryError):
            assert same_error(errors.get(i), want), (errors.get(i), want)
        else:
            assert i not in errors, errors[i]
            assert same_bits(got, value_of(want))


@given(
    kappa=st.sampled_from([1.0, 0.0, -1.0, 9e-13, -9e-13, 0.25]) | st.floats(-4.0, 4.0),
    xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
    off=st.lists(st.tuples(coord_st, coord_st), max_size=4),
)
# the antipode pin at s = +0.0 and -0.0, with c on either side
@example(kappa=1.0, xs=[math.pi], off=[(0.0, -1.0), (-0.0, -1.0), (-0.0, 1.0), (0.0, 1.0)])
# the c < 0 branch of a hyperbolic and of a Taylor label
@example(kappa=-1.0, xs=[0.5], off=[(math.sinh(0.5), -math.cosh(0.5))])
@example(kappa=9e-13, xs=[2.0], off=[(2.0, -1.0), (-0.0, 1.0)])
@SETTINGS
def test_kinv_array_matches_kinv(kappa, xs, off):
    # pairs on the unit curve, the same pairs with c negated, and pairs off it
    pairs = [(sk(kappa, x), ck(kappa, x)) for x in xs]
    pairs += [(s, -c) for s, c in pairs] + off
    s, c = np.array(pairs).T
    x, errors = kinv_array(kappa, s, c)
    assert_matches(x, errors, [scalar(kinv, kappa, si, ci) for si, ci in pairs])


@given(kp=kp_st, generator=st.sampled_from(GENERATOR_NAMES), ts=st.lists(st.floats(-1000.0, 1000.0) | coord_st, min_size=1, max_size=6))
@SETTINGS
def test_exp_stack_matches_exp_matrix(kp, generator, ts):
    # a ck or sk overflow raises in the scalar form and is infinite in the
    # stack; the raw matrix, as exp_one_param builds it before validating it
    stack, errors = group._exp_stack(kp, generator, np.array(ts))
    results = [scalar(group._one_param, kp, generator, t, ck, sk) for t in ts]
    assert_matches(stack, errors, results)


@given(kp=kp_st, x=points_st)
@SETTINGS
def test_group_stack_matches_group_from_coords(kp, x):
    stack, errors = group._group_stack(kp, x)
    results = [scalar(group_from_coords, kp, GroupCoordinates(*p)) for p in x.tolist()]
    assert_matches(stack, errors, results, lambda g: g.m)


@given(kp=kp_st, x=points_st, junk=st.lists(st.lists(coord_st, min_size=9, max_size=9), max_size=2))
# the chart edge: at a2 = pi/2 the cosine factor of a2 is 6e-17
@example(kp=KappaPair(1.0, 1.0), x=np.array([[0.3, math.pi / 2, 0.2]]), junk=[])
# entries near 1e159, whose squares overflow to inf and nan
@example(kp=KappaPair(-1e6, 1.0), x=np.array([[0.2, 0.17, 0.0], [0.2, 0.0, 0.0]]), junk=[])
@SETTINGS
def test_coords_stack_rows_match_one_row_calls(kp, x, junk):
    g, _ = group._group_stack(kp, x)
    m = np.concatenate([g[np.isfinite(g).all(axis=(1, 2))], np.reshape(junk, (-1, 3, 3))])
    assert_rows_are_one_row_calls(lambda rows: group._coords_stack(kp, m[rows]), len(m))


def test_coords_stack_flags_the_chart_edge_and_the_overflow():
    edge, _ = group._group_stack(KappaPair(1.0, 1.0), np.array([[0.3, math.pi / 2, 0.2]]))
    huge, _ = group._group_stack(KappaPair(-1e6, 1.0), np.array([[0.2, 0.17, 0.0]]))
    assert np.isfinite(huge).all()
    assert [type(e) for e in group._coords_stack(KappaPair(1.0, 1.0), edge)[1].values()] == [ChartDomainError]
    assert [type(e) for e in group._coords_stack(KappaPair(-1e6, 1.0), huge)[1].values()] == [ChartDomainError]


@given(
    kp=kp_st,
    ts=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
    extra=st.lists(st.sampled_from([math.inf, math.nan, 1e308, 800.0, 0.0, 1e-300]), max_size=2),
)
@SETTINGS
def test_series_exponential_of_a_stack_matches_each_matrix(kp, ts, extra):
    # one-parameter subgroups plus matrices whose series overflows or fails
    mats = [t * rep(kp, x) for t in ts for x in BASIS]
    mats += [np.diag([v, 0.0, 0.0]) if v != 1e308 else np.full((3, 3), v) for v in extra]
    results = [scalar(expm_series, a) for a in mats]
    if any(isinstance(r, GeometryError) for r in results):
        with pytest.raises(ConvergenceError):
            expm_series(np.array(mats))
    else:
        assert same_bits(expm_series(np.array(mats)), np.array(results))


@given(kp=kp_st, x=points_st)
@example(kp=KappaPair(-1e6, 1.0), x=np.array([[0.48, -0.35, 0.0], [0.2, 0.17, 0.0], [0.0, 0.0, 0.1]]))
# the translation step itself overflows
@example(kp=KappaPair(-1e20, 1.0), x=np.array([[0.0, 0.0, 0.0], [1e-11, 0.0, 0.0]]))
@SETTINGS
def test_invariant_fields_stack_rows_match_one_row_calls(kp, x):
    def call(rows):
        fields, errors = poisson._invariant_fields_stack(kp, x[rows])
        return np.stack([fields.left, fields.right], axis=1), errors

    assert_rows_are_one_row_calls(call, len(x))


@given(kp=kp_st, z=st.sampled_from([0.1, 1.3, -0.4, 1e308]), x=points_st)
@SETTINGS
def test_sklyanin_closed_stack_rows_match_one_row_calls(kp, z, x):
    assert_rows_are_one_row_calls(lambda rows: poisson._sklyanin_closed_stack(kp, z, x[rows]), len(x))


@given(
    z=st.sampled_from([0.1, -2.0, 1e300]),
    entries=st.lists(st.floats(-1e160, 1e160) | st.floats(-3.0, 3.0), min_size=18, max_size=18 * 4),
)
@SETTINGS
def test_sklyanin_numeric_of_stacked_fields_matches_each_point(z, entries):
    n = len(entries) // 18
    lr = np.reshape(entries[: 18 * n], (n, 2, 3, 3))
    r = rmatrix(DeformationKind.FIRST_KIND, z)
    per_point = [scalar(sklyanin_numeric, r, InvariantFields(f[0], f[1])) for f in lr]
    stacked = scalar(sklyanin_numeric, r, InvariantFields(lr[:, 0], lr[:, 1]))
    if any(isinstance(p, GeometryError) for p in per_point):
        assert isinstance(stacked, GeometryError)
    else:
        assert same_bits(stacked, np.array(per_point))


@given(seed=st.integers(0, 2**32), kp=kp_st, frac=st.sampled_from([0.3, 0.35, 0.4]), n=st.integers(1, 12))
@SETTINGS
def test_group_stack_sampling_draws_what_sample_group_coords_draws(seed, kp, frac, n):
    one, many = np.random.default_rng(seed), np.random.default_rng(seed)
    each = [checks.sample_group_coords(one, kp, frac).as_array() for _ in range(n)]
    assert same_bits(checks.sample_group_stack(many, kp, frac, n), np.array(each))
    assert one.random() == many.random()


@given(kp=kp_st, kpd=kp_st, seed=st.integers(0, 2**32), n=st.integers(1, 10))
@SETTINGS
def test_duality_defects_match_the_element_by_element_brackets(kp, kpd, seed, n):
    m = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, (3, 3))
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(n):
        x, y = (checks.sample_element(rng) for _ in range(2))
        lhs = m @ bracket(kpd, x, y).as_array()
        rhs = bracket(kp, AlgebraElement(*(m @ x.as_array())), AlgebraElement(*(m @ y.as_array()))).as_array()
        want.append(float(np.abs(lhs - rhs).max()))
    got = checks.duality_morphism_defects(kp, kpd, m, np.random.default_rng(seed), n)
    assert same_bits(got, want)


@given(kp=kp_st, xs=st.lists(st.tuples(coord_st, coord_st, coord_st), min_size=1, max_size=5))
@SETTINGS
def test_bracket_coefficients_of_arrays_match_bracket(kp, xs):
    x = np.array(xs)
    y = x[::-1] * 0.7
    got = np.stack(_bracket_coeffs(kp, x.T, y.T), axis=-1)
    want = [bracket(kp, AlgebraElement(*a), AlgebraElement(*b)).as_array() for a, b in zip(x.tolist(), y.tolist())]
    assert same_bits(got, np.array(want))


@given(kp=kp_st, s=st.lists(st.tuples(coord_st, coord_st, coord_st | st.sampled_from([1e200, -1e160])), min_size=1, max_size=5))
@SETTINGS
def test_ambient_defect_stack_matches_ambient_defect(kp, s):
    got = group._ambient_defect_stack(kp, np.array(s))
    assert same_bits(got, [ambient_defect(kp, p) for p in s])


@given(
    kp=kp_st,
    x=points_st,
    s=st.lists(st.tuples(coord_st, coord_st, coord_st | st.sampled_from([1e200, -1e160])), min_size=6, max_size=6),
)
@SETTINGS
def test_act_stack_rows_match_one_row_calls(kp, x, s):
    # points on the quadric, through the orbit of the base point, and points off it
    g, _ = group._group_stack(kp, x)
    g = g[np.isfinite(g).all(axis=(1, 2))]
    orbit = (np.arange(len(g)) % 2 == 0)[:, None]
    points = np.where(orbit, g[:, :, 0], np.array(s)[: len(g)])
    assert_rows_are_one_row_calls(lambda rows: group._act_stack(kp, g[rows], points[rows]), len(g))
