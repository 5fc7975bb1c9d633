"""Deterministic self-verification sweep over the nine homogeneous planes.

Every structural property the package claims (trigonometric identities,
bracket closure, duality morphisms, group/chart consistency, metric and
curvature data, bialgebra axioms, Poisson brackets, quantum relations)
is re-evaluated here against independent references: literal per-geometry
closed forms, finite differences, series expansions and translation
oracles.  Each check reports its worst defect over a seeded sample set
and passes when that defect stays below its tolerance.

A check is a generator registered with `@check(tol)`.  It yields one
`(defect, where)` pair per evaluated sample, and one reducer turns the
pairs into its CheckResult: the worst defect starts at 0.0, nan counts as
inf, a strictly larger defect is needed to move the location (so the first
worst sample wins), `samples` is the number of pairs, and the check passes
when the worst defect is at most its tolerance.

Checks are pure functions of a SweepConfig; two runs with the same
configuration produce identical results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import ktrig
from .algebra import (
    BASIS,
    GENERATOR_NAMES,
    NORMALIZED_PAIRS,
    AlgebraElement,
    KappaPair,
    bracket,
    casimir_coeffs,
    classify,
    kappa_from_kinematics,
    structure_tensor,
)
from .dualities import (
    DUALITIES,
    DualityName,
    apply_duality,
    duality_kappa,
    duality_matrix,
)
from .errors import (
    BadSpeedError,
    ChartDomainError,
    ConfigError,
    DegenerateMetricError,
    GeometryError,
    OffSurfaceError,
    UndefinedDualityError,
)
from .group import (
    GroupCoordinates,
    act,
    ambient_defect,
    coords_from_group,
    exp_one_param,
    expm_series,
    group_from_coords,
    metric_matrix,
    rep,
    rep_basis,
)
from .poisson import (
    _PAIRS,
    GROUP_COORD_NAMES,
    GROUP_COORD_PAIRS,
    Bivector,
    CoisotropyVerdict,
    DeformationKind,
    bialgebra_check,
    cocommutator_map,
    coisotropy_check,
    invariant_fields_numeric,
    invariant_vector_fields,
    mcybe_defect,
    phs_points_bracket,
    rmatrix,
    schouten,
    sklyanin_closed,
    sklyanin_numeric,
)
from .quantum import (
    coproduct_classical,
    coproduct_rep,
    coassociativity_defect,
    deformed_relation_defect,
    first_order_delta,
)
from .spaces import (
    Ambient,
    ParallelI,
    ParallelII,
    Polar,
    convert,
    from_ambient,
    gaussian_curvature,
    killing_fields,
    laplace_beltrami_apply,
    metric_main,
    metric_subsidiary,
    to_ambient,
)

_KAPPA_GRIDS = {"normalized9": NORMALIZED_PAIRS}
KAPPA_GRID_NAMES = tuple(_KAPPA_GRIDS)

TRIG_KAPPAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
TRIG_GRID = np.linspace(-3.0, 3.0, 61)

FLAT_BOUND = 1.0


def coord_bound(label: float, frac: float) -> float:
    """Safe sampling half-width for a coordinate whose label is `label`.

    Positive labels confine the coordinate to a fraction of the half
    period so that stencils and short flows stay inside every chart; the
    half period is infinite for the other labels, which leaves FLAT_BOUND.
    """
    return min(FLAT_BOUND, frac * ktrig.half_period(label))


def sample_parallel1(rng: np.random.Generator, kp: KappaPair, frac: float) -> ParallelI:
    b1 = coord_bound(kp.k1, frac)
    b2 = coord_bound(kp.k12, frac)
    return ParallelI(rng.uniform(-b1, b1), rng.uniform(-b2, b2))


def sample_group_coords(rng: np.random.Generator, kp: KappaPair, frac: float) -> GroupCoordinates:
    b1 = coord_bound(kp.k1, frac)
    b2 = coord_bound(kp.k12, frac)
    bx = coord_bound(kp.k2, frac)
    return GroupCoordinates(
        rng.uniform(-b1, b1), rng.uniform(-b2, b2), rng.uniform(-bx, bx)
    )


def sample_element(rng: np.random.Generator) -> AlgebraElement:
    return AlgebraElement(*rng.uniform(-2.0, 2.0, 3))


# --- literal per-geometry reference rows -----------------------------------
#
# Independent transcriptions of the metric coefficients and symmetry fields
# of each plane, written with plain math.* calls so they cannot share bugs
# with the ktrig-based implementations they cross-check.

def _metric_rows():
    c, ch = math.cos, math.cosh
    return {
        (1, 1): lambda a1, a2: (c(a2) ** 2, 1.0),
        (0, 1): lambda a1, a2: (1.0, 1.0),
        (-1, 1): lambda a1, a2: (ch(a2) ** 2, 1.0),
        (1, 0): lambda a1, a2: (1.0, 0.0),
        (0, 0): lambda a1, a2: (1.0, 0.0),
        (-1, 0): lambda a1, a2: (1.0, 0.0),
        (1, -1): lambda a1, a2: (ch(a2) ** 2, -1.0),
        (0, -1): lambda a1, a2: (1.0, -1.0),
        (-1, -1): lambda a1, a2: (c(a2) ** 2, -1.0),
    }


def _field_rows():
    s, c, t = math.sin, math.cos, math.tan
    sh, ch, th = math.sinh, math.cosh, math.tanh
    return {
        (1, 1): lambda a1, a2: (
            (-1.0, 0.0),
            (-s(a1) * t(a2), -c(a1)),
            (c(a1) * t(a2), -s(a1)),
        ),
        (0, 1): lambda a1, a2: ((-1.0, 0.0), (0.0, -1.0), (a2, -a1)),
        (-1, 1): lambda a1, a2: (
            (-1.0, 0.0),
            (sh(a1) * th(a2), -ch(a1)),
            (ch(a1) * th(a2), -sh(a1)),
        ),
        (1, 0): lambda a1, a2: ((-1.0, 0.0), (0.0, -c(a1)), (0.0, -s(a1))),
        (0, 0): lambda a1, a2: ((-1.0, 0.0), (0.0, -1.0), (0.0, -a1)),
        (-1, 0): lambda a1, a2: ((-1.0, 0.0), (0.0, -ch(a1)), (0.0, -sh(a1))),
        (1, -1): lambda a1, a2: (
            (-1.0, 0.0),
            (s(a1) * th(a2), -c(a1)),
            (-c(a1) * th(a2), -s(a1)),
        ),
        (0, -1): lambda a1, a2: ((-1.0, 0.0), (0.0, -1.0), (-a2, -a1)),
        (-1, -1): lambda a1, a2: (
            (-1.0, 0.0),
            (-sh(a1) * t(a2), -ch(a1)),
            (-ch(a1) * t(a2), -sh(a1)),
        ),
    }


def _sklyanin_rows():
    # ordered as ({a1,a2}, {a1,xi}, {a2,xi}); only the six planes with k2 != 0
    s, c, t = math.sin, math.cos, math.tan
    sh, ch, th = math.sinh, math.cosh, math.tanh
    return {
        (1, 1): lambda a1, a2, xi, z: (
            z * t(a2),
            z * s(xi) / c(a2),
            -z * (c(a2) * c(xi) - 1.0) / c(a2),
        ),
        (0, 1): lambda a1, a2, xi, z: (z * a2, z * s(xi), -z * (c(xi) - 1.0)),
        (-1, 1): lambda a1, a2, xi, z: (
            z * th(a2),
            z * s(xi) / ch(a2),
            -z * (ch(a2) * c(xi) - 1.0) / ch(a2),
        ),
        (1, -1): lambda a1, a2, xi, z: (
            -z * th(a2),
            -z * sh(xi) / ch(a2),
            -z * (ch(a2) * ch(xi) - 1.0) / ch(a2),
        ),
        (0, -1): lambda a1, a2, xi, z: (-z * a2, -z * sh(xi), -z * (ch(xi) - 1.0)),
        (-1, -1): lambda a1, a2, xi, z: (
            -z * t(a2),
            -z * sh(xi) / c(a2),
            -z * (c(a2) * ch(xi) - 1.0) / c(a2),
        ),
    }


# name, motion group, then the h0 / h01 / h02 one-parameter subgroups
_CLASSIFICATION_ROWS = {
    (1, 1): ("spherical", "SO(3)", ("SO(2)", "SO(2)", "SO(2)")),
    (0, 1): ("euclidean", "ISO(2)", ("SO(2)", "R", "R")),
    (-1, 1): ("hyperbolic", "SO(2,1)", ("SO(2)", "SO(1,1)", "SO(1,1)")),
    (1, 0): ("co-euclidean", "ISO(2)", ("R", "SO(2)", "R")),
    (0, 0): ("galilean", "IISO(1)", ("R", "R", "R")),
    (-1, 0): ("co-minkowskian", "ISO(1,1)", ("R", "SO(1,1)", "R")),
    (1, -1): ("co-hyperbolic", "SO(2,1)", ("SO(1,1)", "SO(2)", "SO(1,1)")),
    (0, -1): ("minkowskian", "ISO(1,1)", ("SO(1,1)", "R", "R")),
    (-1, -1): ("doubly hyperbolic", "SO(2,1)", ("SO(1,1)", "SO(1,1)", "SO(2)")),
}


# --- configuration and results ----------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check: worst defect vs tolerance."""

    suite: str
    name: str
    max_defect: float
    tolerance: float
    passed: bool
    samples: int
    detail: str = ""


@dataclass(frozen=True)
class SweepConfig:
    """Deterministic inputs of a verification sweep."""

    kappa_grid: tuple[KappaPair, ...] = NORMALIZED_PAIRS
    z_values: tuple[float, ...] = (0.1,)
    sample_count: int = 20
    seed: int = 0

    def validated(self) -> "SweepConfig":
        if not self.kappa_grid:
            raise ConfigError("kappa grid must not be empty")
        for kp in self.kappa_grid:
            if not (math.isfinite(kp.k1) and math.isfinite(kp.k2)):
                raise ConfigError(f"non-finite kappa pair {kp}")
        if not self.z_values:
            raise ConfigError("need at least one deformation parameter z")
        for z in self.z_values:
            if not math.isfinite(z) or z == 0.0:
                raise ConfigError(f"z must be finite and nonzero, got {z!r}")
        if self.sample_count < 1:
            raise ConfigError(f"sample count must be positive, got {self.sample_count}")
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        grid = tuple(sorted(self.kappa_grid, key=lambda kp: (kp.k1, kp.k2)))
        zs = tuple(sorted(self.z_values))
        return replace(self, kappa_grid=grid, z_values=zs)


def kappa_grid_from_name(name: str) -> tuple[KappaPair, ...]:
    try:
        return _KAPPA_GRIDS[name]
    except KeyError:
        raise ConfigError(f"unknown kappa grid {name!r}, expected one of {KAPPA_GRID_NAMES}") from None


# one (defect, where) pair per evaluated sample
Defects = Iterator[tuple[float, str]]
CheckFn = Callable[[SweepConfig, np.random.Generator], Defects]

# (suite, name, function) in definition order; a check's index here seeds
# its random stream
_REGISTRY: list[tuple[str, str, CheckFn]] = []
# check name -> tolerance, the one table the runner and the CLI read
DEFAULT_TOLERANCES: dict[str, float] = {}


def check(tol: float) -> Callable[[CheckFn], CheckFn]:
    """Register the generator `_check_<suite>_<rest>` as check `<suite>_<rest>`
    with tolerance tol."""

    def register(fn: CheckFn) -> CheckFn:
        name = fn.__name__.removeprefix("_check_")
        _REGISTRY.append((name.split("_", 1)[0], name, fn))
        DEFAULT_TOLERANCES[name] = tol
        return fn

    return register


def _kp_tag(kp: KappaPair) -> str:
    return f"kappa=({kp.k1:g},{kp.k2:g})"


def _accepted(exc: type[Exception], fn: Callable[..., object], *args: object) -> float:
    """1.0 when fn(*args) returns, 0.0 when it raises exc: the defect of a
    guard that must reject its input."""
    try:
        fn(*args)
    except exc:
        return 0.0
    return 1.0


# --- trig suite --------------------------------------------------------------


@check(1e-12)
def _check_trig_identity(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    kappas = TRIG_KAPPAS + tuple(rng.uniform(-2.0, 2.0, 3))
    for k in kappas:
        for x in TRIG_GRID:
            c, s = ktrig.ck(k, x), ktrig.sk(k, x)
            yield abs(c * c + k * s * s - 1.0), f"identity k={k:g} x={x:g}"
            yield abs(k * ktrig.vk(k, x) - (1.0 - c)), f"versine k={k:g} x={x:g}"
            if abs(c) > 0.2:
                yield abs(ktrig.tk(k, x) * c - s), f"tangent k={k:g} x={x:g}"


@check(1e-12)
def _check_trig_addition(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for k in TRIG_KAPPAS:
        for x in TRIG_GRID:
            c, s = ktrig.ck(k, x), ktrig.sk(k, x)
            yield abs(ktrig.ck(k, 2.0 * x) - (c * c - k * s * s)), f"double ck k={k:g}"
            yield abs(ktrig.sk(k, 2.0 * x) - 2.0 * s * c), f"double sk k={k:g}"
        for _ in range(cfg.sample_count):
            x, y = rng.uniform(-2.0, 2.0, 2)
            cx, sx = ktrig.ck(k, x), ktrig.sk(k, x)
            cy, sy = ktrig.ck(k, y), ktrig.sk(k, y)
            yield abs(ktrig.ck(k, x + y) - (cx * cy - k * sx * sy)), f"sum ck k={k:g}"
            yield abs(ktrig.sk(k, x + y) - (sx * cy + cx * sy)), f"sum sk k={k:g}"


@check(1e-8)
def _check_trig_derivatives(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    h = 1e-5
    for k in TRIG_KAPPAS:
        for x in TRIG_GRID:
            dc = (ktrig.ck(k, x + h) - ktrig.ck(k, x - h)) / (2.0 * h)
            ds = (ktrig.sk(k, x + h) - ktrig.sk(k, x - h)) / (2.0 * h)
            ec = -k * ktrig.sk(k, x)
            es = ktrig.ck(k, x)
            yield abs(dc - ec) / max(1.0, abs(ec)), f"d ck k={k:g} x={x:g}"
            yield abs(ds - es) / max(1.0, abs(es)), f"d sk k={k:g} x={x:g}"
            c = ktrig.ck(k, x)
            if abs(c) > 0.2:
                dt = (ktrig.tk(k, x + h) - ktrig.tk(k, x - h)) / (2.0 * h)
                et = 1.0 / (c * c)
                yield abs(dt - et) / max(1.0, abs(et)), f"d tk k={k:g} x={x:g}"


@check(1e-12)
def _check_trig_taylor_match(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    # the small-label branch must agree with the exact circular/hyperbolic
    # forms evaluated just below the switch point
    for k in (9e-13, -9e-13):
        r = math.sqrt(abs(k))
        for x in TRIG_GRID:
            if k > 0:
                ec, es = math.cos(r * x), math.sin(r * x) / r
            else:
                ec, es = math.cosh(r * x), math.sinh(r * x) / r
            yield abs(ktrig.ck(k, x) - ec), f"taylor ck k={k:g}"
            yield abs(ktrig.sk(k, x) - es) * r, f"taylor sk k={k:g}"


@check(1e-10)
def _check_trig_inverse_roundtrip(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for k in TRIG_KAPPAS:
        if k > 0:
            hp = ktrig.half_period(k)
            xs = rng.uniform(-hp * 0.999, hp * 0.999, cfg.sample_count)
        else:
            xs = rng.uniform(-3.0, 3.0, cfg.sample_count)
        for x in xs:
            y = ktrig.kinv(k, ktrig.sk(k, x), ktrig.ck(k, x))
            yield abs(y - x), f"kinv k={k:g} x={x:g}"
    # half period lands on the antipodal cosine for positive labels
    for k in (0.25, 1.0, 2.0):
        yield abs(ktrig.ck(k, ktrig.half_period(k)) + 1.0), f"half period k={k:g}"


# --- algebra suite -----------------------------------------------------------


@check(1e-13)
def _check_algebra_jacobi(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    pairs = cfg.kappa_grid + tuple(KappaPair(*rng.uniform(-2, 2, 2)) for _ in range(3))
    for kp in pairs:
        for _ in range(cfg.sample_count):
            x, y, zz = (sample_element(rng) for _ in range(3))
            total = (
                bracket(kp, bracket(kp, x, y), zz)
                + bracket(kp, bracket(kp, y, zz), x)
                + bracket(kp, bracket(kp, zz, x), y)
            )
            yield total.max_abs(), _kp_tag(kp)


@check(1e-12)
def _check_algebra_casimir_commutes(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        coeffs = casimir_coeffs(kp)
        mats = rep_basis(kp)
        cas = sum(c * (m @ m) for c, m in zip(coeffs, mats))
        for m in mats:
            yield float(np.abs(cas @ m - m @ cas).max()), _kp_tag(kp)


@check(1e-12)
def _check_algebra_rep_homomorphism(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        for _ in range(cfg.sample_count):
            x, y = sample_element(rng), sample_element(rng)
            lhs = rep(kp, bracket(kp, x, y))
            rx, ry = rep(kp, x), rep(kp, y)
            yield float(np.abs(lhs - (rx @ ry - ry @ rx)).max()), _kp_tag(kp)


@check(1e-12)
def _check_algebra_rep_metricity(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        im = metric_matrix(kp)
        for m in rep_basis(kp):
            yield float(np.abs(m.T @ im + im @ m).max()), _kp_tag(kp)
        p = rep_basis(kp)[0]
        yield float(np.abs(p @ p @ p + kp.k1 * p).max()), f"cube {_kp_tag(kp)}"


@check(0.5)
def _check_algebra_classification(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in NORMALIZED_PAIRS:
        label = classify(kp)
        name, group, isotropy = _CLASSIFICATION_ROWS[kp.signs()]
        ok = (
            label.name.value == name
            and label.group_name == group
            and (label.h0, label.h01, label.h02) == isotropy
        )
        yield 0.0 if ok else 1.0, _kp_tag(kp)
    # scaled pairs classify like their sign pattern
    for _ in range(cfg.sample_count):
        k1, k2 = rng.uniform(0.1, 3.0, 2) * rng.choice([-1.0, 1.0], 2)
        kp = KappaPair(float(k1), float(k2))
        name, _, _ = _CLASSIFICATION_ROWS[kp.signs()]
        yield 0.0 if classify(kp).name.value == name else 1.0, _kp_tag(kp)
    lam, c = -1.0, 3.0
    kp = kappa_from_kinematics(lam, c)
    yield abs(kp.k1 - 1.0) + abs(kp.k2 + 1.0 / 9.0), "kinematics roundtrip"
    try:
        kappa_from_kinematics(1.0, 0.0)
    except BadSpeedError:
        return
    yield 1.0, "zero speed accepted"


# --- duality suite -----------------------------------------------------------


def duality_morphism_defects(
    kp: KappaPair, kpd: KappaPair, m: np.ndarray, rng: np.random.Generator, count: int
) -> Iterator[float]:
    """Bracket-morphism defect max|m [x, y]_kpd - [m x, m y]_kp| of the
    duality matrix m from the algebra labelled kpd to the one labelled kp,
    at `count` pairs of elements drawn from rng."""
    for _ in range(count):
        x, y = sample_element(rng), sample_element(rng)
        lhs = m @ bracket(kpd, x, y).as_array()
        rhs = bracket(kp, AlgebraElement(*(m @ x.as_array())), AlgebraElement(*(m @ y.as_array()))).as_array()
        yield float(np.abs(lhs - rhs).max())


@check(1e-13)
def _check_duality_morphism(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    # each map sends the basis of the relabeled algebra to elements of the
    # original one; the images must reproduce the relabeled brackets inside
    # the original bracket
    pairs = cfg.kappa_grid + tuple(KappaPair(*rng.uniform(-2, 2, 2)) for _ in range(4))
    for name in DUALITIES:
        for kp in pairs:
            try:
                kpd = duality_kappa(name, kp)
                m = duality_matrix(name, kp)
            except UndefinedDualityError:
                continue
            for defect in duality_morphism_defects(kp, kpd, m, rng, cfg.sample_count):
                yield defect, f"{name.value} {_kp_tag(kp)}"


@check(1e-13)
def _check_duality_involution(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    pairs = cfg.kappa_grid + tuple(KappaPair(*rng.uniform(-2, 2, 2)) for _ in range(3))
    for kp in pairs:
        kpd = duality_kappa(DualityName.D0, kp)
        m1 = duality_matrix(DualityName.D0, kp)
        m2 = duality_matrix(DualityName.D0, kpd)
        yield float(np.abs(m2 @ m1 - np.eye(3)).max()), _kp_tag(kp)
        kpdd = duality_kappa(DualityName.D0, kpd)
        yield abs(kpdd.k1 - kp.k1) + abs(kpdd.k2 - kp.k2), f"labels {_kp_tag(kp)}"
        mi = duality_matrix(DualityName.ID, kp)
        yield float(np.abs(mi - np.eye(3)).max()), "identity map"


@check(1e-13)
def _check_duality_kappa_action(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    sphere = KappaPair(1.0, 1.0)
    for name in DUALITIES:
        kpd = duality_kappa(name, sphere)
        yield abs(kpd.k1 - 1.0) + abs(kpd.k2 - 1.0), f"sphere under {name.value}"
    ads, ds = KappaPair(1.0, -1.0), KappaPair(-1.0, -1.0)
    m1 = duality_kappa(DualityName.D2, ads)
    m2 = duality_kappa(DualityName.D2, ds)
    yield abs(m1.k1 - ds.k1) + abs(m1.k2 - ds.k2), "swap forward"
    yield abs(m2.k1 - ads.k1) + abs(m2.k2 - ads.k2), "swap back"
    # triple application cycles the labels, six applications restore the map
    for kp in (KappaPair(1.0, 1.0), KappaPair(1.0, -1.0), KappaPair(-1.0, 1.0), KappaPair(-1.0, -1.0)):
        acc = np.eye(3)
        cur = kp
        for _ in range(6):
            acc = duality_matrix(DualityName.D0D1, cur) @ acc
            cur = duality_kappa(DualityName.D0D1, cur)
        yield float(np.abs(acc - np.eye(3)).max()), f"sixth power {_kp_tag(kp)}"
        yield abs(cur.k1 - kp.k1) + abs(cur.k2 - kp.k2), f"sixth labels {_kp_tag(kp)}"


@check(0.5)
def _check_duality_restrictions(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    cases = (
        (DualityName.D1, KappaPair(0.0, 1.0)),
        (DualityName.D0D1, KappaPair(0.0, -1.0)),
        (DualityName.D2, KappaPair(1.0, 0.0)),
        (DualityName.D0D2, KappaPair(-1.0, 0.0)),
    )
    for name, kp in cases:
        yield _accepted(UndefinedDualityError, apply_duality, name, kp, BASIS[0]), f"{name.value} accepted {_kp_tag(kp)}"
    for name in DUALITIES:
        for kp in cfg.kappa_grid:
            restricted = (
                (name in (DualityName.D1, DualityName.D0D1) and kp.k1 == 0.0)
                or (name in (DualityName.D2, DualityName.D0D2) and kp.k2 == 0.0)
            )
            accepted = _accepted(UndefinedDualityError, apply_duality, name, kp, BASIS[1])
            yield (accepted if restricted else 1.0 - accepted), f"{name.value} {_kp_tag(kp)}"


# --- group suite -------------------------------------------------------------


@check(1e-12)
def _check_group_closed_vs_series(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    ts = np.linspace(-2.0, 2.0, 21)
    for kp in cfg.kappa_grid:
        for i, gname in enumerate(GENERATOR_NAMES):
            for t in ts:
                closed = exp_one_param(kp, gname, float(t)).m
                series = expm_series(float(t) * rep(kp, BASIS[i]))
                yield float(np.abs(closed - series).max()), f"{gname} {_kp_tag(kp)}"


@check(1e-12)
def _check_group_invariants(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        im = metric_matrix(kp)
        for _ in range(100):
            g = group_from_coords(kp, sample_group_coords(rng, kp, 0.4))
            yield float(np.abs(g.m.T @ im @ g.m - im).max()), _kp_tag(kp)
            yield abs(float(np.linalg.det(g.m)) - 1.0), f"det {_kp_tag(kp)}"


@check(1e-10)
def _check_group_coords_roundtrip(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        for _ in range(cfg.sample_count):
            gc = sample_group_coords(rng, kp, 0.35)
            g = group_from_coords(kp, gc)
            back = coords_from_group(kp, g)
            yield max(abs(back.a1 - gc.a1), abs(back.a2 - gc.a2), abs(back.xi - gc.xi)), _kp_tag(kp)


@check(1e-10)
def _check_group_action_surface(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    origin = np.array([1.0, 0.0, 0.0])
    for kp in cfg.kappa_grid:
        for _ in range(cfg.sample_count):
            gc = sample_group_coords(rng, kp, 0.35)
            g = group_from_coords(kp, gc)
            p = to_ambient(kp, sample_parallel1(rng, kp, 0.35)).as_array()
            moved = act(kp, g, p)
            yield ambient_defect(kp, moved), f"surface {_kp_tag(kp)}"
            # the orbit of the base point recovers the translation part
            orbit = act(kp, g, origin)
            expect = to_ambient(kp, ParallelI(gc.a1, gc.a2)).as_array()
            yield float(np.abs(orbit - expect).max()), f"orbit {_kp_tag(kp)}"


@check(1e-12)
def _check_group_sinh_identity(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        p = rep_basis(kp)[0]
        yield float(np.abs(p @ p @ p + kp.k1 * p).max()), f"cube {_kp_tag(kp)}"
        for t in (-1.5, -0.4, 0.7, 2.0):
            m = 0.5 * (expm_series(t * p) - expm_series(-t * p))
            yield float(np.abs(m - ktrig.sk(kp.k1, t) * p).max()), f"t={t:g} {_kp_tag(kp)}"


# --- geometry suite ----------------------------------------------------------


@check(1e-12)
def _check_geometry_closed_forms(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    metric_rows = _metric_rows()
    field_rows = _field_rows()
    for kp in NORMALIZED_PAIRS:
        mrow = metric_rows[kp.signs()]
        frow = field_rows[kp.signs()]
        for _ in range(cfg.sample_count):
            p = sample_parallel1(rng, kp, 0.35)
            g11, g22 = mrow(p.a1, p.a2)
            m = metric_main(kp, p)
            yield abs(m.g11 - g11), f"g11 {_kp_tag(kp)}"
            yield abs(m.g12), f"g12 {_kp_tag(kp)}"
            yield abs(m.g22 - g22), f"g22 {_kp_tag(kp)}"
            if kp.k2 == 0.0:
                sub = metric_subsidiary(kp, p)
                yield abs(sub.g22 - 1.0) + abs(sub.g11) + abs(sub.g12), f"leaf {_kp_tag(kp)}"
            fields = killing_fields(kp, p, chart="parallel1")
            expect = frow(p.a1, p.a2)
            for got, ref, gname in zip(fields, expect, GENERATOR_NAMES):
                yield max(abs(got[0] - ref[0]), abs(got[1] - ref[1])), f"{gname} {_kp_tag(kp)}"


@check(1e-10)
def _check_geometry_chart_roundtrip(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        for _ in range(cfg.sample_count):
            p = sample_parallel1(rng, kp, 0.35)
            q = from_ambient(kp, to_ambient(kp, p), "parallel1")
            yield max(abs(q.a1 - p.a1), abs(q.a2 - p.a2)), f"parallel1 {_kp_tag(kp)}"
            for target in ("parallel2", "polar"):
                if target == "polar":
                    b1 = coord_bound(kp.k1, 0.3)
                    p2 = ParallelI(rng.uniform(0.2, max(b1, 0.3)), p.a2)
                    s = to_ambient(kp, p2)
                    if s.s1 * s.s1 + kp.k2 * s.s2 * s.s2 < 0.1:
                        continue
                else:
                    p2 = p
                try:
                    mid = convert(kp, p2, target)
                    back = convert(kp, mid, "parallel1")
                except ChartDomainError:
                    continue
                yield max(abs(back.a1 - p2.a1), abs(back.a2 - p2.a2)), f"{target} {_kp_tag(kp)}"


def _fd_jacobian(fn: Callable[[float, float], tuple[float, ...]], u: float, v: float, h: float) -> np.ndarray:
    cols = []
    for du, dv in ((h, 0.0), (0.0, h)):
        plus = np.array(fn(u + du, v + dv))
        minus = np.array(fn(u - du, v - dv))
        cols.append((plus - minus) / (2.0 * h))
    return np.column_stack(cols)


def _chart_derivative(kp: KappaPair, p: ParallelI | ParallelII | Polar) -> np.ndarray:
    """Exact 3x2 derivative of to_ambient at a two-coordinate chart point,
    from ck' = -kappa sk and sk' = ck."""
    k1, k2, k12 = kp.k1, kp.k2, kp.k12
    if isinstance(p, ParallelI):
        c1, s1 = ktrig.ck(k1, p.a1), ktrig.sk(k1, p.a1)
        c2, s2 = ktrig.ck(k12, p.a2), ktrig.sk(k12, p.a2)
        return np.array([[-k1 * s1 * c2, -k12 * c1 * s2], [c1 * c2, -k12 * s1 * s2], [0.0, c2]])
    if isinstance(p, ParallelII):
        c1, s1 = ktrig.ck(k1, p.b1), ktrig.sk(k1, p.b1)
        c2, s2 = ktrig.ck(k12, p.b2), ktrig.sk(k12, p.b2)
        return np.array([[-k1 * s1 * c2, -k12 * c1 * s2], [c1, 0.0], [-k1 * s1 * s2, c1 * c2]])
    cr, sr = ktrig.ck(k1, p.r), ktrig.sk(k1, p.r)
    cp, sp = ktrig.ck(k2, p.phi), ktrig.sk(k2, p.phi)
    return np.array([[-k1 * sr, 0.0], [cr * cp, -k2 * sr * sp], [cr * sp, sr * cp]])


@check(1e-8)
def _check_geometry_metric_pullback(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    # The chart Jacobian J = dq/dp solves D_target(q) J = D_parallel1(p)
    # exactly (both sides are derivatives of the same ambient point, and
    # D_target has full column rank inside the chart), so J^T g_q J = g_p
    # holds up to rounding in the ck/sk products and the 2x2 solve; the
    # tolerance has no truncation error to cover.
    for kp in cfg.kappa_grid:
        if kp.k2 == 0.0:
            continue
        for target in ("parallel2", "polar"):
            done = attempts = 0
            while done < cfg.sample_count and attempts < 20 * cfg.sample_count:
                attempts += 1
                if target == "polar":
                    b1 = coord_bound(kp.k1, 0.3)
                    p = ParallelI(rng.uniform(0.2, max(b1, 0.3)), sample_parallel1(rng, kp, 0.3).a2)
                    s = to_ambient(kp, p)
                    if s.s1 * s.s1 + kp.k2 * s.s2 * s.s2 < 0.1:
                        continue
                else:
                    p = sample_parallel1(rng, kp, 0.3)
                try:
                    q = convert(kp, p, target)
                    jac = np.linalg.lstsq(_chart_derivative(kp, q), _chart_derivative(kp, p), rcond=None)[0]
                    ga = metric_main(kp, p).as_matrix()
                    gb = metric_main(kp, q).as_matrix()
                except ChartDomainError:
                    continue
                done += 1
                yield float(np.abs(jac.T @ gb @ jac - ga).max()), f"{target} {_kp_tag(kp)}"


@check(1e-6)
def _check_geometry_curvature(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        if kp.k2 == 0.0:
            continue
        for _ in range(cfg.sample_count):
            p = sample_parallel1(rng, kp, 0.3)
            yield abs(gaussian_curvature(kp, p) - kp.k1), _kp_tag(kp)


def _flow_map(kp: KappaPair, mat: np.ndarray) -> Callable[[float, float], tuple[float, float]]:
    def fn(u: float, v: float) -> tuple[float, float]:
        s = to_ambient(kp, ParallelI(u, v)).as_array()
        out = from_ambient(kp, Ambient(*(mat @ s)), "parallel1")
        return out.a1, out.a2

    return fn


@check(1e-6)
def _check_geometry_killing_flow(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    h = 1e-6
    for kp in cfg.kappa_grid:
        if kp.k2 == 0.0:
            continue
        for i, gname in enumerate(GENERATOR_NAMES):
            for t in (0.1, 0.3):
                mat = expm_series(-t * rep(kp, BASIS[i]))
                flow = _flow_map(kp, mat)
                done = attempts = 0
                while done < 5 and attempts < 100:
                    attempts += 1
                    p = sample_parallel1(rng, kp, 0.25)
                    try:
                        q1, q2 = flow(p.a1, p.a2)
                        jac = _fd_jacobian(flow, p.a1, p.a2, h)
                        gq = metric_main(kp, ParallelI(q1, q2)).as_matrix()
                    except ChartDomainError:
                        continue
                    done += 1
                    gp = metric_main(kp, p).as_matrix()
                    yield float(np.abs(jac.T @ gq @ jac - gp).max()), f"{gname} t={t:g} {_kp_tag(kp)}"


@check(1e-6)
def _check_geometry_killing_fields_flow(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    # the stored field components are the t-derivative at 0 of the inverse
    # one-parameter flow through the point
    h = 1e-6
    for kp in cfg.kappa_grid:
        for i, gname in enumerate(GENERATOR_NAMES):
            plus = expm_series(-h * rep(kp, BASIS[i]))
            minus = expm_series(h * rep(kp, BASIS[i]))
            for _ in range(cfg.sample_count):
                p = sample_parallel1(rng, kp, 0.3)
                s = to_ambient(kp, p).as_array()
                fa = killing_fields(kp, Ambient(*s), chart="ambient")[i]
                fd = (plus @ s - minus @ s) / (2.0 * h)
                yield float(np.abs(fd - fa).max()), f"ambient {gname} {_kp_tag(kp)}"
                try:
                    pp = from_ambient(kp, Ambient(*(plus @ s)), "parallel1")
                    pm = from_ambient(kp, Ambient(*(minus @ s)), "parallel1")
                except ChartDomainError:
                    continue
                fc = killing_fields(kp, p, chart="parallel1")[i]
                d1 = (pp.a1 - pm.a1) / (2.0 * h)
                d2 = (pp.a2 - pm.a2) / (2.0 * h)
                yield max(abs(d1 - fc[0]), abs(d2 - fc[1])), f"chart {gname} {_kp_tag(kp)}"


@check(1e-5)
def _check_geometry_field_commutators(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    h = 1e-5
    for kp in cfg.kappa_grid:
        ct = structure_tensor(kp)

        def fields_at(u: float, v: float) -> np.ndarray:
            f = killing_fields(kp, ParallelI(u, v), chart="parallel1")
            return np.array(f)

        for _ in range(max(4, cfg.sample_count // 4)):
            p = sample_parallel1(rng, kp, 0.3)
            base = fields_at(p.a1, p.a2)
            du = (fields_at(p.a1 + h, p.a2) - fields_at(p.a1 - h, p.a2)) / (2.0 * h)
            dv = (fields_at(p.a1, p.a2 + h) - fields_at(p.a1, p.a2 - h)) / (2.0 * h)
            for i, j in _PAIRS:
                comm = (
                    base[i, 0] * du[j] + base[i, 1] * dv[j]
                    - base[j, 0] * du[i] - base[j, 1] * dv[i]
                )
                expect = ct[i, j, 0] * base[0] + ct[i, j, 1] * base[1] + ct[i, j, 2] * base[2]
                yield float(np.abs(comm - expect).max()), f"[{i}{j}] {_kp_tag(kp)}"


@check(1e-5)
def _check_geometry_laplacian(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    # oracle: Casimir-weighted second differences along the generator flows,
    # with the O(h^2) truncation cancelled between steps h and 2h
    fine_step, coarse_step = 1e-3, 2e-3
    funcs = (
        lambda a1, a2: math.sin(a1) + a2 * a2,
        lambda a1, a2: a1 * a2,
        lambda a1, a2: math.cos(a2) * a1,
    )
    for kp in cfg.kappa_grid:
        coeffs = casimir_coeffs(kp)
        flows = {
            h: [
                (_flow_map(kp, expm_series(-h * rep(kp, x))), _flow_map(kp, expm_series(h * rep(kp, x))))
                for x in BASIS
            ]
            for h in (fine_step, coarse_step)
        }

        def flow_laplacian(f: Callable[[float, float], float], p: ParallelI, h: float) -> float:
            f0 = f(p.a1, p.a2)
            return sum(
                c * (f(*plus(p.a1, p.a2)) - 2.0 * f0 + f(*minus(p.a1, p.a2))) / (h * h)
                for c, (plus, minus) in zip(coeffs, flows[h])
            )

        for f in funcs:
            for _ in range(4):
                p = sample_parallel1(rng, kp, 0.3)
                try:
                    lb = laplace_beltrami_apply(kp, f, p)
                except DegenerateMetricError:
                    continue
                try:
                    fine = flow_laplacian(f, p, fine_step)
                    coarse = flow_laplacian(f, p, coarse_step)
                except ChartDomainError:
                    continue
                yield abs(lb - (4.0 * fine - coarse) / 3.0), _kp_tag(kp)
    # flat-space reference values
    kp = KappaPair(0.0, -1.0)
    yield abs(laplace_beltrami_apply(kp, lambda a1, a2: a1 * a2, ParallelI(0.3, -0.2))), "product"
    yield abs(laplace_beltrami_apply(kp, lambda a1, a2: 4.5, ParallelI(0.3, -0.2))), "constant"


@check(1e-12)
def _check_geometry_foliation(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        if kp.k2 != 0.0:
            continue
        for _ in range(cfg.sample_count):
            p = sample_parallel1(rng, kp, 0.4)
            fields = killing_fields(kp, p, chart="parallel1")
            # fibers a1 = const are preserved by the isotropy directions
            yield abs(fields[1][0]), f"J02 {_kp_tag(kp)}"
            yield abs(fields[2][0]), f"J12 {_kp_tag(kp)}"
            for i in (1, 2):
                mat = expm_series(-0.3 * rep(kp, BASIS[i]))
                s = to_ambient(kp, p).as_array()
                q = from_ambient(kp, Ambient(*(mat @ s)), "parallel1")
                yield abs(q.a1 - p.a1), f"flow J{i} {_kp_tag(kp)}"


@check(0.5)
def _check_geometry_domain_guards(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    sphere = KappaPair(1.0, 1.0)
    yield _accepted(DegenerateMetricError, gaussian_curvature, KappaPair(1.0, 0.0), ParallelI(0.1, 0.2)), "curvature k2=0"
    yield _accepted(ChartDomainError, from_ambient, sphere, Ambient(1.0, 0.0, 0.0), "polar"), "polar origin"
    yield _accepted(ChartDomainError, from_ambient, sphere, Ambient(0.0, 0.0, 1.0), "parallel1"), "parallel1 pole"
    yield _accepted(OffSurfaceError, from_ambient, sphere, Ambient(2.0, 0.0, 0.0), "parallel1"), "off surface"
    yield _accepted(ChartDomainError, to_ambient, sphere, Polar(-0.5, 0.1)), "negative radius"
    kp = KappaPair(1.0, -1.0)
    left = to_ambient(kp, ParallelI(-0.8, 0.1))
    yield _accepted(ChartDomainError, from_ambient, kp, left, "polar"), "polar wedge"


# --- bialgebra suite ---------------------------------------------------------


def _first_kind_images(kp: KappaPair, z: float) -> tuple[Bivector, Bivector, Bivector]:
    return (
        Bivector(0.0, 0.0, 0.0),
        Bivector(z * kp.k2, 0.0, 0.0),
        Bivector(0.0, z * kp.k2, 0.0),
    )


def _second_kind_images(kp: KappaPair, z: float) -> tuple[Bivector, Bivector, Bivector]:
    return (
        Bivector(z, 0.0, 0.0),
        Bivector(0.0, 0.0, 0.0),
        Bivector(0.0, 0.0, -z),
    )


_KIND_IMAGES = {
    DeformationKind.FIRST_KIND: _first_kind_images,
    DeformationKind.SECOND_KIND: _second_kind_images,
}

# expected coefficient of [[r, r]] on J01 ^ J02 ^ J12, by deformation kind
SCHOUTEN_COEFFICIENTS: dict[DeformationKind, Callable[[KappaPair, float], float]] = {
    DeformationKind.FIRST_KIND: lambda kp, z: z * z * kp.k2,
    DeformationKind.SECOND_KIND: lambda kp, z: z * z,
}


@check(1e-13)
def _check_bialgebra_cocommutator(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        for z in cfg.z_values:
            for kind, literal in _KIND_IMAGES.items():
                cm = cocommutator_map(kp, rmatrix(kind, z))
                for img, ref, gname in zip(
                    (cm.d_j01, cm.d_j02, cm.d_j12), literal(kp, z), GENERATOR_NAMES
                ):
                    yield (img - ref).max_abs(), f"{kind.value} {gname} {_kp_tag(kp)}"


@check(1e-13)
def _check_bialgebra_cocycle(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        for z in cfg.z_values:
            for kind in DeformationKind:
                cm = cocommutator_map(kp, rmatrix(kind, z))
                report = bialgebra_check(kp, cm)
                yield report.cocycle_defect, f"{kind.value} {_kp_tag(kp)}"


@check(1e-13)
def _check_bialgebra_dual_jacobi(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        for z in cfg.z_values:
            for kind, literal in _KIND_IMAGES.items():
                cm = cocommutator_map(kp, rmatrix(kind, z))
                report = bialgebra_check(kp, cm)
                yield report.dual_jacobi_defect, f"{kind.value} {_kp_tag(kp)}"
                # [e^j, e^k] of the dual algebra reads the e_j ^ e_k components of the images
                images = literal(kp, z)
                for j, k in _PAIRS:
                    ref = np.array([img.component(j, k) for img in images])
                    got = report.dual_bracket_coeffs(j, k)
                    yield float(np.abs(got - ref).max()), f"dual [{j}{k}] {kind.value} {_kp_tag(kp)}"


@check(1e-13)
def _check_bialgebra_schouten(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        for z in cfg.z_values:
            for kind, expected in SCHOUTEN_COEFFICIENTS.items():
                coeff = schouten(kp, rmatrix(kind, z)).coefficient
                yield abs(coeff - expected(kp, z)), f"{kind.value} {_kp_tag(kp)}"


@check(1e-13)
def _check_bialgebra_mcybe(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        for z in cfg.z_values:
            for kind in DeformationKind:
                yield mcybe_defect(kp, rmatrix(kind, z)), f"{kind.value} {_kp_tag(kp)}"


@check(0.5)
def _check_bialgebra_coisotropy(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        for z in cfg.z_values:
            cm = cocommutator_map(kp, rmatrix(DeformationKind.FIRST_KIND, z))
            got01 = coisotropy_check(kp, cm, "J01")
            yield 0.0 if got01 is CoisotropyVerdict.POISSON_SUBGROUP else 1.0, f"J01 {_kp_tag(kp)}"
            expect = (
                CoisotropyVerdict.POISSON_SUBGROUP
                if kp.k2 == 0.0
                else CoisotropyVerdict.COISOTROPIC
            )
            for gen in ("J12", "J02"):
                got = coisotropy_check(kp, cm, gen)
                yield 0.0 if got is expect else 1.0, f"{gen} {_kp_tag(kp)}"


# --- sklyanin suite ----------------------------------------------------------

@check(1e-8)
def _check_sklyanin_fields(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        for _ in range(cfg.sample_count):
            gc = sample_group_coords(rng, kp, 0.35)
            closed = invariant_vector_fields(kp, gc)
            numeric = invariant_fields_numeric(kp, gc)
            yield float(np.abs(closed.left - numeric.left).max()), f"left {_kp_tag(kp)}"
            yield float(np.abs(closed.right - numeric.right).max()), f"right {_kp_tag(kp)}"


def sklyanin_pair_defects(kp: KappaPair, z: float, r: Bivector, gc: GroupCoordinates) -> list[float | None]:
    """|closed - numeric| of the first-kind bracket {f, g} at gc, where
    r = rmatrix(FIRST_KIND, z), for each pair (f, g) of GROUP_COORD_PAIRS.

    A pair whose bracket raises a GeometryError gives None.  The numeric
    invariant fields at gc are built once for every pair, so a
    GeometryError from them propagates.
    """
    iv = invariant_fields_numeric(kp, gc)
    defects: list[float | None] = []
    for f, g in GROUP_COORD_PAIRS:
        try:
            defects.append(abs(sklyanin_closed(kp, z, (f, g), gc) - sklyanin_numeric(r, f, g, iv)))
        except GeometryError:
            defects.append(None)
    return defects


@check(1e-6)
def _check_sklyanin_closed_vs_numeric(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        for z in cfg.z_values:
            r = rmatrix(DeformationKind.FIRST_KIND, z)
            for _ in range(50):
                gc = sample_group_coords(rng, kp, 0.35)
                for (f, g), defect in zip(GROUP_COORD_PAIRS, sklyanin_pair_defects(kp, z, r, gc)):
                    yield (math.inf if defect is None else defect), f"{{{f},{g}}} {_kp_tag(kp)}"


@check(1e-5)
def _check_sklyanin_jacobi(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    h = 1e-5
    names = GROUP_COORD_NAMES

    for kp in cfg.kappa_grid:
        for z in cfg.z_values:

            def poisson_matrix(gc: GroupCoordinates) -> np.ndarray:
                m = np.zeros((3, 3))
                for i, j in _PAIRS:
                    v = sklyanin_closed(kp, z, (names[i], names[j]), gc)
                    m[i, j] = v
                    m[j, i] = -v
                return m

            def nested(a: int, b: int, c: int, gc: GroupCoordinates) -> float:
                base = np.array([gc.a1, gc.a2, gc.xi])
                grad = np.zeros(3)
                for d in range(3):
                    dp, dm = base.copy(), base.copy()
                    dp[d] += h
                    dm[d] -= h
                    grad[d] = (
                        sklyanin_closed(kp, z, (names[a], names[b]), GroupCoordinates(*dp))
                        - sklyanin_closed(kp, z, (names[a], names[b]), GroupCoordinates(*dm))
                    ) / (2.0 * h)
                return float(grad @ poisson_matrix(gc)[:, c])

            for _ in range(max(3, cfg.sample_count // 5)):
                gc = sample_group_coords(rng, kp, 0.3)
                total = nested(0, 1, 2, gc) + nested(1, 2, 0, gc) + nested(2, 0, 1, gc)
                yield abs(total), _kp_tag(kp)


@check(1e-12)
def _check_sklyanin_specializations(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    rows = _sklyanin_rows()
    for kp in NORMALIZED_PAIRS:
        if kp.k2 == 0.0:
            continue
        row = rows[kp.signs()]
        for z in cfg.z_values:
            for _ in range(cfg.sample_count):
                gc = sample_group_coords(rng, kp, 0.35)
                ref = row(gc.a1, gc.a2, gc.xi, z)
                for pair, val in zip(GROUP_COORD_PAIRS, ref):
                    got = sklyanin_closed(kp, z, pair, gc)
                    yield abs(got - val), f"{{{pair[0]},{pair[1]}}} {_kp_tag(kp)}"


@check(1e-2)
def _check_sklyanin_kappa2_zero(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for z in cfg.z_values:
        for k1 in (-1.0, 0.0, 1.0):
            kp0 = KappaPair(k1, 0.0)
            for _ in range(cfg.sample_count):
                gc = sample_group_coords(rng, kp0, 0.4)
                for pair in GROUP_COORD_PAIRS:
                    yield abs(sklyanin_closed(kp0, z, pair, gc)), f"vanish k1={k1:g}"
            # shrinking the second label scales every bracket linearly
            slopes = []
            gc = sample_group_coords(rng, kp0, 0.3)
            for k2 in (1e-2, 1e-4, 1e-6):
                kp = KappaPair(k1, k2)
                slopes.append(
                    np.array([sklyanin_closed(kp, z, pair, gc) for pair in GROUP_COORD_PAIRS]) / k2
                )
            yield float(np.abs(slopes[1] - slopes[2]).max()) / max(1.0, abs(z)), f"slope k1={k1:g}"


@check(1e-6)
def _check_sklyanin_phs(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    h = 1e-6
    for kp in cfg.kappa_grid:
        for z in cfg.z_values:
            for _ in range(cfg.sample_count):
                p = sample_parallel1(rng, kp, 0.35)
                try:
                    first = phs_points_bracket(kp, z, DeformationKind.FIRST_KIND, p.a1, p.a2)
                except ChartDomainError:
                    continue
                yield abs(first - z * kp.k2 * ktrig.tk(kp.k12, p.a2)), f"first {_kp_tag(kp)}"
                second = phs_points_bracket(kp, z, DeformationKind.SECOND_KIND, p.a1, p.a2)
                yield abs(second - z * ktrig.sk(kp.k1, p.a1)), f"second {_kp_tag(kp)}"
            plus = phs_points_bracket(kp, z, DeformationKind.FIRST_KIND, 0.2, h)
            minus = phs_points_bracket(kp, z, DeformationKind.FIRST_KIND, 0.2, -h)
            yield abs((plus - minus) / (2.0 * h) - z * kp.k2), f"slope {_kp_tag(kp)}"


# --- quantum suite -----------------------------------------------------------


@check(1e-9)
def _check_quantum_relations(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        for z in cfg.z_values:
            try:
                yield deformed_relation_defect(kp, z), f"z={z:g} {_kp_tag(kp)}"
            except (ValueError, GeometryError) as exc:
                yield math.inf, f"z={z:g} {_kp_tag(kp)}: {exc}"


@check(1e-10)
def _check_quantum_coassociativity(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        for z in cfg.z_values:
            try:
                yield coassociativity_defect(kp, z), f"z={z:g} {_kp_tag(kp)}"
            except (ValueError, GeometryError) as exc:
                yield math.inf, f"z={z:g} {_kp_tag(kp)}: {exc}"


@check(10.0)
def _check_quantum_classical_limit(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    # the dressed coproduct approaches the primitive one linearly in z
    zt = 1e-6
    for kp in cfg.kappa_grid:
        for gen in GENERATOR_NAMES:
            dz = coproduct_rep(kp, zt, gen)
            d0 = coproduct_classical(kp, gen)
            yield float(np.abs(dz - d0).max()) / zt, f"{gen} {_kp_tag(kp)}"


@check(10.0)
def _check_quantum_first_order(cfg: SweepConfig, rng: np.random.Generator) -> Defects:
    for kp in cfg.kappa_grid:
        for z in (1e-3, 1e-4):
            try:
                cm = first_order_delta(kp, z)
            except (ValueError, GeometryError) as exc:
                yield math.inf, f"z={z:g} {_kp_tag(kp)}: {exc}"
                continue
            literal = _first_kind_images(kp, z)
            images = (cm.d_j01, cm.d_j02, cm.d_j12)
            for got, ref, gname in zip(images, literal, GENERATOR_NAMES):
                yield (got - ref).max_abs() / (z * z), f"{gname} z={z:g} {_kp_tag(kp)}"


# --- registry and runner -----------------------------------------------------

CHECK_NAMES = tuple(name for _, name, _ in _REGISTRY)
SUITE_NAMES = tuple(dict.fromkeys(suite for suite, _, _ in _REGISTRY))


def _reduce(suite: str, name: str, defects: Defects) -> CheckResult:
    """Fold a check's (defect, where) pairs into its result, by the rules
    the module docstring states."""
    worst, where, samples = 0.0, "", 0
    for samples, (defect, tag) in enumerate(defects, 1):
        if math.isnan(defect):
            defect = math.inf
        if defect > worst:
            worst, where = defect, tag
    tol = DEFAULT_TOLERANCES[name]
    return CheckResult(suite, name, float(worst), tol, bool(worst <= tol), samples, where)


def _run(cfg: SweepConfig, selected: Callable[[str, str], bool]) -> list[CheckResult]:
    # check i of the registry draws from its own stream [seed, i], so a
    # result does not depend on which other checks run with it
    cfg = cfg.validated()
    return [
        _reduce(suite, name, fn(cfg, np.random.default_rng([cfg.seed, idx])))
        for idx, (suite, name, fn) in enumerate(_REGISTRY)
        if selected(suite, name)
    ]


def run_check(name: str, cfg: SweepConfig) -> CheckResult:
    """Run one named check with its own deterministic stream."""
    results = _run(cfg, lambda suite, cname: cname == name)
    if not results:
        raise ConfigError(f"unknown check {name!r}")
    return results[0]


def run_suite(suite: str, cfg: SweepConfig) -> list[CheckResult]:
    if suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {suite!r}, expected one of {SUITE_NAMES}")
    return _run(cfg, lambda sname, name: sname == suite)


def run_all(cfg: SweepConfig) -> list[CheckResult]:
    """Every check, in registry order, each with an independent seed stream."""
    return _run(cfg, lambda suite, name: True)


def suite_summary(results: Sequence[CheckResult]) -> dict[str, dict[str, float | bool]]:
    """Per-suite rollup: worst defect and combined pass flag."""
    out: dict[str, dict[str, float | bool]] = {}
    for r in results:
        row = out.setdefault(r.suite, {"max_defect": 0.0, "passed": True})
        row["max_defect"] = float(max(row["max_defect"], r.max_defect))
        row["passed"] = bool(row["passed"] and r.passed)
    return out
