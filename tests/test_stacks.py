"""Stack forms against their scalar forms, bit for bit.

A stack form evaluates N points at once and raises nothing.  It must flag
every point where its scalar form raises, and wherever the scalar form
returns, its values must equal the scalar ones bit for bit (nan where the
scalar value is nan).  The sweep relies on both: it evaluates a batch and
calls the scalar form only at the flagged points.
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
    invariant_fields_numeric,
    kinv,
    kinv_array,
    rep,
    rmatrix,
    sk,
    sklyanin_closed,
    sklyanin_numeric,
)
from ckgeom import checks, group, poisson
from ckgeom.algebra import _bracket_coeffs

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


def assert_matches(stack_values, ok, scalar_results, value_of=lambda r: r):
    """ok is False wherever the scalar form raised; elsewhere the values agree."""
    for got, good, want in zip(stack_values, ok, scalar_results):
        if isinstance(want, GeometryError):
            assert not good, want
        else:
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
    x, ok = kinv_array(kappa, s, c)
    results = [scalar(kinv, kappa, si, ci) for si, ci in pairs]
    assert_matches(x, ok, results)
    assert ok.tolist() == [not isinstance(r, GeometryError) for r in results]


@given(kp=kp_st, generator=st.sampled_from(GENERATOR_NAMES), ts=st.lists(st.floats(-1000.0, 1000.0) | coord_st, min_size=1, max_size=6))
@SETTINGS
def test_exp_stack_matches_exp_matrix(kp, generator, ts):
    # an ck or sk overflow raises in the scalar form and is infinite in the stack
    stack = group._exp_stack(kp, generator, np.array(ts))
    results = [scalar(group._exp_matrix, kp, generator, t) for t in ts]
    assert_matches(stack, np.isfinite(stack).all(axis=(1, 2)), results)


@given(kp=kp_st, x=points_st)
@SETTINGS
def test_group_stack_matches_group_from_coords(kp, x):
    stack = group._group_stack(kp, x)
    results = [scalar(group_from_coords, kp, GroupCoordinates(*p)) for p in x.tolist()]
    assert_matches(stack, np.isfinite(stack).all(axis=(1, 2)), results, lambda g: g.m)


@given(kp=kp_st, x=points_st, junk=st.lists(st.lists(coord_st, min_size=9, max_size=9), max_size=2))
# the chart edge: at a2 = pi/2 the cosine factor of a2 is 6e-17
@example(kp=KappaPair(1.0, 1.0), x=np.array([[0.3, math.pi / 2, 0.2]]), junk=[])
# entries near 1e159, whose squares overflow to inf and nan
@example(kp=KappaPair(-1e6, 1.0), x=np.array([[0.2, 0.17, 0.0], [0.2, 0.0, 0.0]]), junk=[])
@SETTINGS
def test_coords_stack_matches_coords_from_matrix(kp, x, junk):
    g = group._group_stack(kp, x)
    m = np.concatenate([g[np.isfinite(g).all(axis=(1, 2))], np.reshape(junk, (-1, 3, 3))])
    if not len(m):
        return
    coords, ok = group._coords_stack(kp, m)
    results = [scalar(group._coords_from_matrix, kp, mi) for mi in m]
    assert_matches(coords, ok, results, lambda gc: gc.as_array())
    for good, r in zip(ok, results):
        if good:
            assert np.isfinite(r.as_array()).all()


def test_coords_stack_flags_the_chart_edge_and_the_overflow():
    edge = group._group_stack(KappaPair(1.0, 1.0), np.array([[0.3, math.pi / 2, 0.2]]))
    huge = group._group_stack(KappaPair(-1e6, 1.0), np.array([[0.2, 0.17, 0.0]]))
    assert np.isfinite(huge).all()
    assert not group._coords_stack(KappaPair(1.0, 1.0), edge)[1].any()
    assert not group._coords_stack(KappaPair(-1e6, 1.0), huge)[1].any()


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
@SETTINGS
def test_invariant_fields_stack_matches_invariant_fields_numeric(kp, x):
    fields, ok = poisson._invariant_fields_stack(kp, x)
    results = [scalar(invariant_fields_numeric, kp, GroupCoordinates(*p)) for p in x.tolist()]
    stack = np.stack([fields.left, fields.right], axis=1)
    assert_matches(stack, ok, results, lambda f: np.stack([f.left, f.right]))
    assert all(not isinstance(r, GeometryError) for r, good in zip(results, ok) if good)


@given(kp=kp_st, z=st.sampled_from([0.1, 1.3, -0.4, 1e308]), x=points_st)
@SETTINGS
def test_sklyanin_closed_stack_matches_sklyanin_closed(kp, z, x):
    p, ok = poisson._sklyanin_closed_stack(kp, z, x)
    results = [scalar(sklyanin_closed, kp, z, GroupCoordinates(*q)) for q in x.tolist()]
    assert_matches(p, ok, results)


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
