"""Stack forms: a mask, bit for bit, and the raising form's errors.

A map evaluated at many points at once is written once, over steps (see
ktrig).  With a ktrig._Flag as the steps it is a stack form: it raises
nothing, and the flag's mask bad marks the rows where the raising form
raises.  For every stack form, bad must equal the set of rows where the
raising form raises, and the unflagged values must equal the raising
form's bit for bit.  The raising form is the scalar form where one stays
(ktrig's kinv, ck, sk and tk, group_from_coords, to_ambient, expm_series,
sklyanin_numeric), the one-point call where one stays (coords_from_group,
from_ambient, metric_main, gaussian_curvature, laplace_beltrami_apply, the
to_ambient, product and from_ambient of the checks' flow map, and the one-z
deformed_relation_defect and coassociativity_defect of the quantum z axis,
which are also held to a literal np.kron transcription), and otherwise the
transcription itself at one point with ktrig as the steps (the
one-parameter exponential, act, the numeric invariant fields, the closed
Sklyanin bracket and the symmetry fields).  The sweep evaluates a flagged sample
through the transcription with ktrig as the steps; where a scalar form
stays beside it, the error must be the scalar form's in type and text.

The bialgebra layer raises nothing and has no mask.  Over a stack of
r-matrices of any leading shape, the cocommutator images, the cocycle and
dual-Jacobi defects of bialgebra_check, the Schouten tensor and
mcybe_defect must equal the one-r call bit for bit, row by row, and both
must equal a literal Python-sum transcription: numpy documents no
summation order for einsum or matmul.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ckgeom import (
    BASIS,
    CHART_NAMES,
    GENERATOR_NAMES,
    Ambient,
    AlgebraElement,
    ConvergenceError,
    DeformationDomainError,
    DeformationKind,
    DegenerateMetricError,
    GeometryError,
    GroupCoordinates,
    GroupElement,
    InvariantFields,
    KappaPair,
    ParallelI,
    ParallelII,
    Polar,
    bialgebra_check,
    bracket,
    ck,
    coassociativity_defect,
    cocommutator_map,
    coords_from_group,
    deformed_relation_defect,
    expm_series,
    from_ambient,
    gaussian_curvature,
    group_from_coords,
    kinv,
    kinv_array,
    laplace_beltrami_apply,
    mcybe_defect,
    metric_main,
    rep,
    rep_basis,
    rmatrix,
    sk,
    sklyanin_numeric,
    structure_tensor,
    tk,
    to_ambient,
    to_ambient_batch,
    vk,
)
from ckgeom import checks, group, ktrig, poisson, quantum, spaces
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

# the entry -kappa * sk of exp(t J01) overflows where ck and sk do not
ENTRY_OVERFLOW = (KappaPair(-1e6, 1.0), 0.7055)


def sample_parallel1(rng, kp, frac) -> list:
    """One parallel1 point as a sample-by-sample loop draws it: a1, then a2."""
    b1, b2 = checks.coord_bound(kp.k1, frac), checks.coord_bound(kp.k12, frac)
    return [rng.uniform(-b1, b1), rng.uniform(-b2, b2)]


def sample_group_coords(rng, kp, frac) -> list:
    """One group point as a sample-by-sample loop draws it: a1, a2, then xi."""
    bx = checks.coord_bound(kp.k2, frac)
    return sample_parallel1(rng, kp, frac) + [rng.uniform(-bx, bx)]


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


def flagged(form, shape, *args):
    """The stack form of the transcription form: form(*args, steps) with
    flagging steps for a stack of the given shape, and their mask, under the
    floating-point policy its callers hold (see ktrig)."""
    flag = ktrig._Flag(shape)
    with ktrig.quiet():
        return form(*args, flag), flag.bad


def assert_flags(values, bad, results, value_of=lambda r: r):
    """bad marks the rows whose raising form raised (results holds the
    error there), and only those; elsewhere the values agree bit for bit."""
    assert bad.shape == (len(results),)
    for i, (got, want) in enumerate(zip(values, results)):
        assert bool(bad[i]) == isinstance(want, GeometryError), (i, want)
        if not bad[i]:
            assert same_bits(got, value_of(want)), i


SPHERE = KappaPair(1.0, 1.0)


# each raise site that prints a coordinate, with a call that reaches it
@pytest.mark.parametrize(
    "raise_at, coords",
    [
        (lambda x: tk(1.0, x), (math.pi / 2,)),
        (lambda a1, a2: to_ambient(SPHERE, ParallelI(a1, a2)), (4.0, 0.1)),
        (lambda a1, a2: metric_main(SPHERE, ParallelI(a1, a2)), (0.1, 2.0)),
        (lambda r, phi: to_ambient(SPHERE, Polar(r, phi)), (-0.5, 0.1)),
        (lambda a1, a2: to_ambient(KappaPair(-1e6, 1.0), ParallelI(a1, a2)), (0.7, 0.1)),
        (lambda a1, a2: metric_main(KappaPair(1e5, -3.0), ParallelI(a1, a2)), (0.0, 0.8)),
    ],
    ids=["tk pole", "period", "cosine zero", "polar radius", "ambient triple", "metric"],
)
def test_a_raise_site_prints_a_numpy_scalar_as_a_float(raise_at, coords):
    # a check evaluates a flagged sample again at the numpy rows of the sample
    as_float = scalar(raise_at, *coords)
    assert isinstance(as_float, GeometryError)
    as_numpy = scalar(raise_at, *map(np.float64, coords))
    assert (type(as_numpy), str(as_numpy)) == (type(as_float), str(as_float))


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
    x, bad = kinv_array(kappa, s, c)
    assert_flags(x, bad, [scalar(kinv, kappa, si, ci) for si, ci in pairs])


@given(kappa=st.sampled_from(LABELS) | st.floats(-1e6, 4.0), xs=st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=6))
# an infinite circular angle, from an infinite x and from a product that overflows
@example(kappa=1.0, xs=[math.inf, -math.inf, math.nan, 0.5])
@example(kappa=1e300, xs=[1e200, -1e-200])
@SETTINGS
def test_flagged_ck_and_sk_match_ck_and_sk(kappa, xs):
    for form, name in ((ck, "ck"), (sk, "sk")):
        values, bad = flagged(lambda x, steps: getattr(steps, name)(kappa, x), len(xs), np.array(xs))
        assert_flags(values, bad, [scalar(form, kappa, x) for x in xs])


@given(kp=kp_st, generator=st.sampled_from(GENERATOR_NAMES), ts=st.lists(st.floats(-1000.0, 1000.0) | coord_st, min_size=1, max_size=6))
@example(kp=ENTRY_OVERFLOW[0], generator="J01", ts=[ENTRY_OVERFLOW[1], 0.1])
@SETTINGS
def test_exp_stack_matches_exp_matrix(kp, generator, ts):
    stack, bad = flagged(group._one_param, len(ts), kp, generator, np.array(ts))
    with ktrig.quiet():
        results = [scalar(group._one_param, kp, generator, t, ktrig) for t in ts]
    assert_flags(stack, bad, results)


@given(kp=kp_st, x=points_st)
@example(kp=ENTRY_OVERFLOW[0], x=np.array([[ENTRY_OVERFLOW[1], 0.0, 0.0], [0.1, 0.2, 0.3]]))
@SETTINGS
def test_group_stack_matches_group_from_coords(kp, x):
    stack, bad = flagged(group._group, len(x), kp, x)
    results = [scalar(group_from_coords, kp, GroupCoordinates(*p)) for p in x.tolist()]
    assert_flags(stack, bad, results, lambda g: g.m)
    # the oracle fields raise through the transcription's own steps
    for p, want in zip(x, results):
        with ktrig.quiet():
            got = scalar(group._group, kp, p, ktrig)
        assert same_error(got, want) if isinstance(want, GeometryError) else same_bits(got, want.m)


@given(kp=kp_st, x=points_st, junk=st.lists(st.lists(coord_st, min_size=9, max_size=9), max_size=2))
# the chart edge: at a2 = pi/2 the cosine factor of a2 is 6e-17
@example(kp=KappaPair(1.0, 1.0), x=np.array([[0.3, math.pi / 2, 0.2]]), junk=[])
# entries near 1e159, whose squares overflow to inf and nan
@example(kp=KappaPair(-1e6, 1.0), x=np.array([[0.2, 0.17, 0.0], [0.2, 0.0, 0.0]]), junk=[])
@SETTINGS
def test_coords_stack_rows_match_one_row_calls(kp, x, junk):
    g, _ = flagged(group._group, len(x), kp, x)
    m = np.concatenate([g[np.isfinite(g).all(axis=(1, 2))], np.reshape(junk, (-1, 3, 3))])
    values, bad = flagged(group._coords, len(m), kp, m)
    results = [scalar(coords_from_group, kp, GroupElement(a, kp)) for a in m]
    assert_flags(values, bad, results, lambda gc: gc.as_array())


def test_coords_stack_flags_the_chart_edge_and_the_overflow():
    for kp, x in ((KappaPair(1.0, 1.0), [[0.3, math.pi / 2, 0.2]]), (KappaPair(-1e6, 1.0), [[0.2, 0.17, 0.0]])):
        g, bad = flagged(group._group, 1, kp, np.array(x))
        assert np.isfinite(g).all() and not bad.any()
        assert flagged(group._coords, 1, kp, g)[1].tolist() == [True]


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
    values, bad = flagged(group._series, len(mats), np.array(mats))
    assert_flags(values, bad, results)
    # the stack call raises the error of its first failing matrix
    failed = [r for r in results if isinstance(r, GeometryError)]
    if failed:
        with pytest.raises(ConvergenceError) as info:
            expm_series(np.array(mats))
        assert same_error(info.value, failed[0])
    else:
        assert same_bits(expm_series(np.array(mats)), values)


@given(kp=kp_st, x=points_st)
@example(kp=KappaPair(-1e6, 1.0), x=np.array([[0.48, -0.35, 0.0], [0.2, 0.17, 0.0], [0.0, 0.0, 0.1]]))
# the translation step itself overflows
@example(kp=KappaPair(-1e20, 1.0), x=np.array([[0.0, 0.0, 0.0], [1e-11, 0.0, 0.0]]))
@SETTINGS
def test_invariant_fields_stack_rows_match_one_row_calls(kp, x):
    fields, bad = flagged(poisson._invariant_fields, len(x), kp, x)
    values = np.stack([fields.left, fields.right], axis=1)
    with ktrig.quiet():
        results = [scalar(poisson._invariant_fields, kp, p, ktrig) for p in x]
    assert_flags(values, bad, results, lambda f: np.stack([f.left, f.right]))


def test_wedge_rows_round_as_adding_into_a_zero_matrix():
    # a stack of every triple of these entries, signed zeros and non-finite ones
    entries = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -2.5e-300)
    a, b, c = np.array(list(itertools.product(entries, repeat=3))).T
    want = np.zeros(a.shape + (3, 3))
    for (i, j), v in zip(poisson._PAIRS, (a, b, c)):
        want[..., i, j] += v
        want[..., j, i] -= v
    assert spaces._matrix(poisson._wedge_rows(a, b, c)).tobytes() == want.tobytes()
    for row, t in zip(zip(a.tolist(), b.tolist(), c.tolist()), want):
        assert np.array(poisson._wedge_rows(*row)).tobytes() == t.tobytes(), row


@given(kp=kp_st, z=st.sampled_from([0.1, 1.3, -0.4, 1e308]), x=points_st)
@SETTINGS
def test_sklyanin_closed_stack_rows_match_one_row_calls(kp, z, x):
    p, bad = flagged(poisson._sklyanin_closed, len(x), kp, z, x)
    with ktrig.quiet():
        results = [scalar(poisson._sklyanin_closed, kp, z, q, ktrig) for q in x]
    assert_flags(p, bad, results)


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
    p, bad = flagged(poisson._bracket, n, r, InvariantFields(lr[:, 0], lr[:, 1]))
    assert_flags(p, bad, per_point)
    stacked = scalar(sklyanin_numeric, r, InvariantFields(lr[:, 0], lr[:, 1]))
    if bad.any():
        assert isinstance(stacked, GeometryError)
    else:
        assert same_bits(stacked, p)


@given(seed=st.integers(0, 2**32), kp=kp_st, frac=st.sampled_from([0.3, 0.35, 0.4]), n=st.integers(1, 12))
@SETTINGS
def test_group_stack_sampling_draws_what_sample_group_coords_draws(seed, kp, frac, n):
    one, many = np.random.default_rng(seed), np.random.default_rng(seed)
    each = [sample_group_coords(one, kp, frac) for _ in range(n)]
    assert same_bits(checks.sample_group_stack(many, kp, frac, n), np.array(each))
    assert one.random() == many.random()


@given(kp=kp_st, kpd=kp_st, seed=st.integers(0, 2**32), n=st.integers(1, 10))
@SETTINGS
def test_duality_defects_match_the_element_by_element_brackets(kp, kpd, seed, n):
    m = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, (3, 3))
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(n):
        x, y = (AlgebraElement(*rng.uniform(-2.0, 2.0, 3)) for _ in range(2))
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
    with ktrig.quiet():
        got = group._ambient_defect_stack(kp, np.array(s))
        want = [group._ambient_defect_stack(kp, np.array(p)) for p in s]
    assert same_bits(got, want)


@given(
    kp=kp_st,
    x=points_st,
    s=st.lists(st.tuples(coord_st, coord_st, coord_st | st.sampled_from([1e200, -1e160])), min_size=6, max_size=6),
)
@SETTINGS
def test_act_stack_rows_match_one_row_calls(kp, x, s):
    # points on the quadric, through the orbit of the base point, and points off it
    g, _ = flagged(group._group, len(x), kp, x)
    g = g[np.isfinite(g).all(axis=(1, 2))]
    orbit = (np.arange(len(g)) % 2 == 0)[:, None]
    points = np.where(orbit, g[:, :, 0], np.array(s)[: len(g)])
    images, bad = flagged(group._act, len(g), kp, g, points)
    with ktrig.quiet():
        results = [scalar(group._act, kp, a, q, ktrig) for a, q in zip(g, points)]
    assert_flags(images, bad, results)


# --- the geometry stack forms ------------------------------------------------

TWO_COORD = (ParallelI, ParallelII, Polar)


def components(point) -> np.ndarray:
    """The coordinates of a chart point, last axis."""
    return np.stack(np.broadcast_arrays(*vars(point).values()), axis=-1)


@given(kappa=st.sampled_from(LABELS) | st.floats(-4.0, 4.0), xs=st.lists(coord_st | st.floats(-1000.0, 1000.0), min_size=1, max_size=6))
@SETTINGS
def test_flagged_tk_matches_tk(kappa, xs):
    values, bad = flagged(lambda x, steps: steps.tk(kappa, x), len(xs), np.array(xs))
    assert_flags(values, bad, [scalar(tk, kappa, x) for x in xs])


@given(
    kp=kp_st,
    chart=st.sampled_from(["parallel1", "parallel2", "polar"]),
    x=points_st,
    junk=st.lists(st.tuples(coord_st, coord_st, coord_st | st.sampled_from([1e200, -1e160])), min_size=1, max_size=3),
    target=st.sampled_from(CHART_NAMES),
)
@SETTINGS
def test_chart_stack_matches_from_ambient(kp, chart, x, junk, target):
    # triples on the quadric, from chart points, and triples off it
    s, bad = to_ambient_batch(kp, chart, x[:, 0], x[:, 1])
    s = np.concatenate([s.T[~bad], np.reshape(junk, (-1, 3))])
    q, bad = flagged(spaces._chart_of, len(s), kp, *s.T, target)
    results = [scalar(from_ambient, kp, Ambient(*t), target) for t in s.tolist()]
    assert_flags(components(q), bad, results, components)


@given(kp=kp_st, cls=st.sampled_from(TWO_COORD), x=points_st)
@example(kp=KappaPair(-1e6, 1.0), cls=Polar, x=np.array([[0.7, 0.1, 0.0]]))
@SETTINGS
def test_metric_stack_matches_metric_main(kp, cls, x):
    g, bad = flagged(spaces._metric_of, len(x), kp, cls(x[:, 0], x[:, 1]))
    results = [scalar(metric_main, kp, cls(*p[:2])) for p in x.tolist()]
    assert_flags(g.as_matrix(), bad, results, lambda m: m.as_matrix())


@given(kp=kp_st, x=points_st)
@example(kp=KappaPair(1.0, 1.0), x=np.array([[0.3, math.pi / 2, 0.0], [0.3, 0.2, 0.0]]))
@SETTINGS
def test_field_stacks_match_killing_fields(kp, x):
    p = ParallelI(x[:, 0], x[:, 1])
    fields, bad = flagged(spaces._fields_of, len(x), kp, p)
    points = [ParallelI(*q[:2]) for q in x.tolist()]
    with ktrig.quiet():
        results = [scalar(spaces._fields_of, kp, q, ktrig) for q in points]
    assert_flags(spaces._matrix(fields), bad, results, np.array)

    # the ambient frame, at the points to_ambient takes
    def ambient_fields(q):
        s = to_ambient(kp, q)
        return spaces._ambient_fields(kp, s.s0, s.s1, s.s2)

    s, bad = to_ambient_batch(kp, "parallel1", x[:, 0], x[:, 1])
    fields = spaces._matrix(spaces._ambient_fields(kp, *s))
    assert_flags(fields, bad, [scalar(ambient_fields, q) for q in points], np.array)


@given(kp=kp_st, x=points_st, generator=st.sampled_from(BASIS), t=st.sampled_from([0.1, -0.3, 2.0, 40.0]))
# the chart map overflows at the first point
@example(kp=KappaPair(-1e6, 1.0), x=np.array([[0.7, 0.1, 0.0], [0.0, 0.1, 0.0]]), generator=BASIS[0], t=0.1)
@SETTINGS
def test_flow_stack_matches_the_flow_of_each_point(kp, x, generator, t):
    mats, bad = flagged(group._series, len(x), t * np.arange(1.0, len(x) + 1.0)[:, None, None] * rep(kp, generator))
    mats, x = mats[~bad], x[~bad]
    q, bad = flagged(checks._flow, len(x), kp, mats, x[:, :2])

    def flow(mat, u, v):
        s = to_ambient(kp, ParallelI(u, v)).as_array()
        with ktrig.quiet():  # an overflowing image is off the quadric
            image = mat @ s
        return from_ambient(kp, Ambient(*image), "parallel1")

    results = [scalar(flow, m, *p[:2]) for m, p in zip(mats, x.tolist())]
    assert_flags(q, bad, results, components)

    # every matrix at each point, one after another, as the Laplacian check reads them
    def images(y, steps):
        return checks._parallel1_each(kp, (mats @ checks._ambient_stack(kp, y, steps)[..., None, :, None])[..., 0], steps)

    q, bad = flagged(images, len(x), x[:, :2])
    results = [scalar(lambda u, v: [flow(m, u, v) for m in mats], *p[:2]) for p in x.tolist()]
    assert_flags(np.moveaxis(q, 0, 1), bad, results, lambda r: np.array([components(c) for c in r]))


@given(kp=kp_st, x=points_st, generator=st.sampled_from(BASIS), t=st.sampled_from([0.1, -0.3, 2.0]))
# the point leaves the parallel1 chart along the flow
@example(kp=KappaPair(-1.0, -1.0), x=np.array([[3.0, 0.0, 0.0], [0.3, 0.2, 0.0]]), generator=BASIS[1], t=0.1)
@SETTINGS
def test_flow_jacobian_rows_match_one_point_calls(kp, x, generator, t):
    # the killing-flow check evaluates a flagged sample again with ktrig as the steps
    mat = scalar(expm_series, t * rep(kp, generator))
    assume(not isinstance(mat, GeometryError))
    (jac, gq), bad = flagged(checks._flow_jacobian, len(x), kp, mat, x[:, :2], 1e-6)
    with ktrig.quiet():
        results = [scalar(checks._flow_jacobian, kp, mat, p, 1e-6, ktrig) for p in x[:, :2]]
    assert_flags(np.concatenate([jac, gq], axis=-1), bad, results, lambda r: np.concatenate(r, axis=-1))


@given(
    kp=st.builds(KappaPair, st.sampled_from(LABELS), st.sampled_from(LABELS)),
    x=points_st,
    generator=st.sampled_from(BASIS),
    t=st.sampled_from([0.1, 0.3]),
)
@SETTINGS
def test_flow_jacobian_flags_every_point_the_metric_there_flags(kp, x, generator, t):
    # the killing-flow check evaluates a flagged sample again through the
    # flow, then the metric at the point: its stencil starts at the point,
    # so the metric there raises nowhere the flow does not raise first
    mat = scalar(expm_series, -t * rep(kp, generator))
    assume(not isinstance(mat, GeometryError))
    _, metric_bad = flagged(spaces._metric_of, len(x), kp, ParallelI(x[:, 0], x[:, 1]))
    _, flow_bad = flagged(checks._flow_jacobian, len(x), kp, mat, x[:, :2], 1e-6)
    assert not (metric_bad & ~flow_bad).any()


@given(kp=kp_st, x=points_st)
@example(kp=KappaPair(0.7, 1e-10), x=np.array([[0.3, 0.4, 0.0]]))
@SETTINGS
def test_curvature_stack_matches_gaussian_curvature(kp, x):
    p = ParallelI(x[:, 0], x[:, 1])
    if kp.k2 == 0.0:
        with pytest.raises(DegenerateMetricError):
            flagged(spaces._curvature_of, len(x), kp, p)
        return
    k, bad = flagged(spaces._curvature_of, len(x), kp, p)
    assert_flags(k, bad, [scalar(gaussian_curvature, kp, ParallelI(*q[:2])) for q in x.tolist()])


@given(kp=kp_st, x=points_st)
@example(kp=KappaPair(1.0, 1.0), x=np.array([[0.3, math.pi / 2, 0.0], [0.3, -0.2, 0.0]]))
@SETTINGS
def test_laplacian_stack_matches_laplace_beltrami_apply(kp, x):
    def f(a1, a2):
        return np.sin(a1) + a2 * a2 * a1

    values, bad = flagged(spaces._laplacian_of, len(x), kp, f, ParallelI(x[:, 0], x[:, 1]))
    results = [scalar(laplace_beltrami_apply, kp, f, ParallelI(*q[:2])) for q in x.tolist()]
    assert_flags(values, bad, results)


@given(seed=st.integers(0, 2**32), kp=kp_st, frac=st.sampled_from([0.25, 0.3, 0.4]), n=st.integers(1, 12))
@SETTINGS
def test_parallel1_stack_sampling_draws_what_sample_parallel1_draws(seed, kp, frac, n):
    one, many = np.random.default_rng(seed), np.random.default_rng(seed)
    each = [sample_parallel1(one, kp, frac) for _ in range(n)]
    assert same_bits(checks.sample_parallel1_stack(many, kp, frac, n), np.array(each))
    assert one.random() == many.random()


@given(
    seed=st.integers(0, 2**32),
    loops=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 12)), min_size=1, max_size=5),
    share=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    sizes=st.lists(st.integers(1, 3), min_size=5, max_size=5),
)
@SETTINGS
def test_rejection_blocks_make_the_draws_of_the_loops(seed, loops, share, sizes):
    # loop l draws sizes[l] doubles per attempt and accepts a candidate whose
    # first double is at least share; the defect is that double
    def accepted(x):
        return x[0] if x[0] >= share else None

    one = np.random.default_rng(seed)
    want = []
    for l, (n, cap) in enumerate(loops):
        done = attempts = 0
        while done < n and attempts < cap:
            attempts += 1
            x = one.random(sizes[l])
            if accepted(x) is not None:
                done += 1
                want.append((x[0], f"loop {l}"))

    many = np.random.default_rng(seed)

    def draw(ids):
        return [many.random(sizes[l]) for l in ids]

    def block(ids, candidates):
        return [checks._Stage([accepted(x) is None for x in candidates], None)], lambda k: accepted(candidates[k])

    # each block of accepted attempts is named while the loops wait at it
    got = [
        (defect, name(i))
        for defects, name in checks._rejection_sampled(many, loops, draw, block, "loop {}".format)
        for i, defect in enumerate(defects.tolist())
    ]
    assert got == want
    assert one.random() == many.random()


# products of +-0.0, inf and nan keep their signs and nan payloads
entry_st = st.sampled_from([0.0, -0.0, 1.0, -2.5, math.inf, -math.inf, math.nan, 1e308, 5e-324]) | st.floats()


@given(data=st.data(), n=st.sampled_from([3, 9]), m=st.sampled_from([3, 9]))
@SETTINGS
def test_kron_has_the_bits_of_np_kron(data, n, m):
    a = np.array(data.draw(st.lists(entry_st, min_size=n * n, max_size=n * n))).reshape(n, n)
    b = np.array(data.draw(st.lists(entry_st, min_size=m * m, max_size=m * m))).reshape(m, m)
    with np.errstate(all="ignore"):
        want = np.kron(a, b)
        got = quantum._kron(a, b)
        # broadcast over a leading axis, row by row
        stacked = quantum._kron(np.stack([a, a.T]), b)
        want_t = np.kron(a.T, b)
    # neither np.kron nor the broadcast product defines the sign of a nan
    assert same_bits(got, want)
    assert same_bits(stacked, np.stack([want, want_t]))


def one_z(fn, kp, z):
    """fn(kp, z), or the error it raises; math.sin raises ValueError at an
    infinite argument."""
    try:
        return fn(kp, z)
    except (GeometryError, ValueError) as exc:
        return exc


def kron_defects(kp, z):
    """The relation and coassociativity defects of (kp, z), each or its
    error, written with np.kron and the scalar steps, with nan-propagating
    maxima."""
    j01, j02, j12 = rep_basis(kp)
    eye = np.eye(3)
    with np.errstate(all="ignore"):
        try:
            u = z * kp.k2
            gamma = 1.0
            if u != 0.0:
                ratio = sk(kp.k1, u) / u
                if ratio <= 0.0:
                    raise DeformationDomainError(
                        f"deformation parameter too large: sk({kp.k1!r}, {u!r}) changes sign, no real rescaling exists"
                    )
                gamma = math.sqrt(ratio)
            rho = (j01, gamma * j02, gamma * j12)
            ts = (-0.5 * z * kp.k2, 0.5 * z * kp.k2)
            minus, plus = (eye + sk(kp.k1, t) * j01 + vk(kp.k1, t) * (j01 @ j01) for t in ts)
        except (GeometryError, ValueError) as exc:
            return exc, exc
        dress = ((eye, eye), (minus, plus), (minus, plus))
        images = [np.kron(r, mi) + np.kron(pl, r) for r, (mi, pl) in zip(rho, dress)]
        coassociativity = 0.0
        for r, (mi, pl), d1 in zip(rho, dress, images):
            lhs = np.kron(d1, mi) + np.kron(np.kron(pl, pl), r)
            rhs = np.kron(r, np.kron(mi, mi)) + np.kron(pl, d1)
            coassociativity = np.maximum(coassociativity, np.max(np.abs(lhs - rhs)))
        a01, a02, a12 = images
        m = z * kp.k2 * a01
        try:
            series = expm_series(np.stack([m, -m]))
        except GeometryError as exc:
            return exc, coassociativity
        sinh = 0.5 * (series[0] - series[1])
        relation = np.max([
            np.max(np.abs(a12 @ a01 - a01 @ a12 - a02)),
            np.max(np.abs(a12 @ a02 - a02 @ a12 + sinh / z)),
            np.max(np.abs(a01 @ a02 - a02 @ a01 - kp.k1 * a12)),
        ])
        return relation, coassociativity


z_st = st.sampled_from([0.1, -0.4, 0.5, 1.5, 4.0, 1e-9, 1e-300, 1e308, -1e308]) | st.floats(-20.0, 20.0)


@given(kp=kp_st, zs=st.lists(z_st.filter(lambda z: z != 0.0), min_size=1, max_size=6))
# the deformation domain at z = 4 and the series scaling at z = 1e308
@example(kp=KappaPair(1.0, 1.0), zs=[0.5, 4.0, 1e308])
# sk overflows at z = 1.5
@example(kp=KappaPair(-1e6, 1.0), zs=[0.3, 1.5])
# sk meets an infinite argument on its circular branch; at k1 = 0 its nan raises nothing
@example(kp=KappaPair(1e150, 1e150), zs=[1e100, 0.1, 1e-200])
@example(kp=KappaPair(0.0, 1e150), zs=[1e308, 0.2])
# an overflow inside a commutator: a nan relation defect
@example(kp=KappaPair(1e150, -1e150), zs=[1e-300])
@SETTINGS
def test_z_stacks_match_the_one_z_calls(kp, zs):
    z = np.array(zs)
    with ktrig.quiet():
        parts, coassociativity_bad = quantum._image_stack(kp, z)
        relation, relation_bad = quantum._relation_stack(kp, z, parts, coassociativity_bad)
        coassociativity = quantum._coassociativity_defect(*parts)
    for i, z in enumerate(zs):
        want = kron_defects(kp, z)
        for values, bad, fn, ref in (
            (relation, relation_bad, deformed_relation_defect, want[0]),
            (coassociativity, coassociativity_bad, coassociativity_defect, want[1]),
        ):
            got = one_z(fn, kp, z)
            assert bool(bad[i]) == isinstance(got, Exception), (z, got)
            if isinstance(ref, Exception):
                assert same_error(got, ref), (z, got, ref)
            else:
                assert same_bits(got, ref) and (bad[i] or same_bits(values[i], got)), (z, got, ref)


# --- the bialgebra layer over a stack of r-matrices --------------------------


def wedge(v) -> list:
    """The antisymmetric tensor of the pair components v, as poisson lays it out."""
    a, b, c = v
    return [[0.0, 0.0 + a, 0.0 + b], [0.0 - a, 0.0, 0.0 + c], [0.0 - b, 0.0 - c, 0.0]]


def zero_sum(terms) -> float:
    """0.0 + t0 + t1 + ..., left to right: the order of matmul and einsum."""
    total = 0.0
    for x in terms:
        total = total + x
    return total


def nan_max(values) -> float:
    values = list(values)
    return math.nan if any(math.isnan(x) for x in values) else max(values)


R3 = range(3)
R4 = list(itertools.product(R3, repeat=4))


def literal_images(kp, r) -> list:
    """delta(e_x) = ad_x t + t ad_x^T on the pairs, with ad_x[m][i] = c[x][i][m]."""
    c, t = structure_tensor(kp).tolist(), wedge(r)
    return [
        [
            zero_sum(c[x][m][a] * t[m][b] for m in R3) + zero_sum(t[a][m] * c[x][m][b] for m in R3)
            for a, b in poisson._PAIRS
        ]
        for x in R3
    ]


def literal_bialgebra(kp, images) -> tuple[float, float]:
    """The cocycle and dual-Jacobi defects; np.sum adds its first term to
    the rest, matmul and einsum start from 0.0."""
    c, t = structure_tensor(kp).tolist(), [wedge(img) for img in images]

    def act(x, y, a, b):  # e_x acting on delta(e_y)
        return zero_sum(c[x][m][a] * t[y][m][b] for m in R3) + zero_sum(t[y][a][m] * c[x][m][b] for m in R3)

    def lhs(i, j, a, b):  # delta([e_i, e_j])
        return c[i][j][0] * t[0][a][b] + c[i][j][1] * t[1][a][b] + c[i][j][2] * t[2][a][b]

    cocycle = nan_max(abs(lhs(i, j, a, b) - (act(i, j, a, b) - act(j, i, a, b))) for i, j, a, b in R4)
    f = [[[t[i][j][k] for i in R3] for k in R3] for j in R3]  # f[j][k][i]
    jac = {(a, b, d, n): zero_sum(f[a][b][m] * f[m][d][n] for m in R3) for a, b, d, n in R4}
    jacobi = nan_max(abs(jac[a, b, d, n] + jac[b, d, a, n] + jac[d, a, b, n]) for a, b, d, n in R4)
    return cocycle, jacobi


def literal_schouten_tensor(kp, r) -> list:
    c, t = structure_tensor(kp).tolist(), wedge(r)
    pairs = list(itertools.product(R3, R3))
    return [
        [
            [
                zero_sum(t[i][b] * t[k][d] * c[i][k][a] for i, k in pairs)
                + zero_sum(t[a][j] * t[k][d] * c[j][k][b] for j, k in pairs)
                + zero_sum(t[a][j] * t[b][l] * c[j][l][d] for j, l in pairs)
                for d in R3
            ]
            for b in R3
        ]
        for a in R3
    ]


def literal_mcybe(kp, s) -> float:
    """The adjoint-invariance defect of the Schouten tensor s."""
    c = structure_tensor(kp).tolist()
    return nan_max(
        abs(
            zero_sum(c[x][m][a] * s[m][b][d] for m in R3)
            + zero_sum(c[x][m][b] * s[a][m][d] for m in R3)
            + zero_sum(c[x][m][d] * s[a][b][m] for m in R3)
        )
        for x, a, b, d in R4
    )


BIALGEBRA_LABELS = [
    *checks.kappa_grid_from_name("normalized9"),
    *(KappaPair(*p) for p in (
        (0.7, -1.3), (-2.5, 0.4), (1e-3, 37.0), (-0.3, -0.01), (0.0, 0.0), (-0.0, 0.0), (1e150, 1e150),
        (1e200, 1e200), (1.0, 1e150), (-1e6, 1.0), (3e-170, 1e-160),
    )),
]
BIALGEBRA_ZS = (0.3, 1.1, 0.37, 1.3, 0.5, 7.0, 1e-300, 1e160, 1e308)
# raw bivectors: signed zeros, infinities and nan on each pair
RAW_BIVECTORS = np.array([
    (0.0, -0.0, 0.0), (-0.0, -0.0, -0.0), (math.inf, 0.0, 1.0), (0.0, -math.inf, -0.0),
    (math.nan, 0.5, 0.0), (-0.0, 2.0, math.nan), (1e200, -1e200, 3e-170),
    # products that underflow to -0.0: sums that start from 0.0 end at +0.0
    (-2.5e-300, -1e200, -1e200), (-3e-170, -1e-160, -2.5e-300), (2.5e-300, -3e-170, 1e-160),
])


@pytest.mark.parametrize("kp", BIALGEBRA_LABELS, ids=lambda kp: f"{kp.k1!r},{kp.k2!r}")
def test_bialgebra_stacks_match_one_r_and_a_literal_sum(kp):
    # the (z, kind) rows of one label pair, then the raw rows, as one stack
    r = np.concatenate([checks.kind_stack(rmatrix, BIALGEBRA_ZS).reshape(-1, 3), RAW_BIVECTORS])
    stack = r.reshape(-1, 7, 3)  # and a stack of two axes
    with np.errstate(all="ignore"):
        images = cocommutator_map(kp, stack)
        cocycle, jacobi, _ = bialgebra_check(kp, images)
        tensor = poisson._schouten_tensor(kp, stack)
        mcybe = mcybe_defect(kp, stack)
        for i, row in enumerate(r):
            at = np.unravel_index(i, stack.shape[:-1])
            one_images = cocommutator_map(kp, row)
            one = (one_images, *bialgebra_check(kp, one_images)[:2], poisson._schouten_tensor(kp, row), mcybe_defect(kp, row))
            lit_images = literal_images(kp, row.tolist())
            lit_tensor = literal_schouten_tensor(kp, row.tolist())
            literal = (lit_images, *literal_bialgebra(kp, lit_images), lit_tensor, literal_mcybe(kp, lit_tensor))
            for name, got, o, lit in zip(("images", "cocycle", "jacobi", "schouten", "mcybe"), (images, cocycle, jacobi, tensor, mcybe), one, literal):
                assert same_bits(got[at], o) and same_bits(o, lit), (name, row)
