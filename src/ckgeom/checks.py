"""Deterministic self-verification sweep over the nine homogeneous planes.

Every structural property the package claims (trigonometric identities,
bracket closure, duality morphisms, group/chart consistency, metric and
curvature data, bialgebra axioms, Poisson brackets, quantum relations)
is re-evaluated here against independent references: literal per-geometry
closed forms, finite differences, series expansions and translation
oracles.  Each check reports its worst defect over a seeded sample set
and passes when that defect stays below its tolerance.

A check is a generator registered with `@check(tol)`.  It yields blocks:
a float array of defects, whose entries come in the order of the check's
sample loop, and name(i), which formats the location of entry i of the
raveled array.  One reducer folds the blocks into the CheckResult.  The
worst entry of a block is its first largest one, with nan read as inf
(worst_defect), and it moves the check's worst defect, which starts at 0.0,
only when it is strictly larger, so the first worst entry wins; name is
called for that entry alone.  `samples` is the number of entries, and the
check passes when its worst defect is at most its tolerance.  A
GeometryError that escapes the generator ends the check with defect inf and
the detail "<Type>: <message>", so one check cannot abort the sweep;
`samples` keeps the entries of the blocks before it.

The reducer holds the package's floating-point policy, ktrig.quiet (see
ktrig), while it runs each check: the graded contractions put labels where
stacked arithmetic overflows, and there a value is inf or nan, which as a
defect fails the check.  A check body states no policy of its own, and
neither do duality_morphism_defects, kind_stack and sklyanin_pair_defects,
which the CLI calls under cli.main's.

The checks evaluate the samples of one label pair (and z) at once, through
the array forms of ktrig, the stack forms of group, poisson, quantum and
spaces and the flow map _flow; sample_group_stack and
sample_parallel1_stack draw the points of a label pair in one call, the
doubles of one point after another.  A stack form flags the samples where
its map raises (see ktrig), and one rule settles a flagged sample:
_survives evaluates it again at each stage (_Stage) that flags it, in the
loop's order, with ktrig as the steps, which raises the error of its first
failing step.  A stage is built from the form it evaluates again: _staged
evaluates a form over the samples through a _Flag and returns the stage
that evaluates the same form at one sample, so each computation is written
once.  Stages of one entry that the loop runs one after another are one
form: at a sample that only a later one flags, the earlier ones raise
nothing, so the form raises the error the stages raised.  The series
exponentials of a flow that a loop builds once, before its first sample,
keep hand-built stages.  A stage passes the numpy rows of its sample to
the raising steps, whose messages print numpy scalars as floats (see
ktrig).  An error the loop skips (its `except ChartDomainError`) drops the
sample, and any other error ends the check after a block of the samples
before it.  So `samples`, the defects and the detail are those of a
sample-by-sample loop.  A stage with no replay is a test the loop skips
on, such as `if abs(c) <= 0.2: continue`: it drops the entries it flags.
_flagged applies the rule to a fixed set of samples, and _rejection_sampled
to the two geometry checks that draw by rejection, `while done < want and
attempts < cap`: an attempt is accepted where it survives its stages, and
only then is its defect evaluated.  _rejection_sampled draws a block of
candidates ahead, as if every attempt were accepted, and evaluates the
block at once.  It makes the attempts in order up to the first candidate
the block gave to the wrong loop, puts rng back to its state before the
block, and draws the candidates of those attempts again, so rng advances
by the draws of the attempts the loop made.  The accepted attempts of a
block are one block of defects.

Checks are pure functions of a SweepConfig; two runs with the same
configuration produce identical results bit for bit.  No check reads the
seed, so a check whose run leaves its stream's state unchanged drew nothing
from it and gives the same fold (worst defect, detail, samples) at every
seed.  _run keeps that fold in _SEED_FREE, one per check from its last such
run, keyed on the repr of the labels, z values and sample count, and returns
it for that key at any seed; the tolerance and the verdict are read afresh on
every run.  Code that patches what a check calls must clear _SEED_FREE first,
or it may read a fold of the unpatched code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import ktrig
from .ktrig import _Flag
from .algebra import (
    BASIS,
    GENERATOR_NAMES,
    NORMALIZED_PAIRS,
    KappaPair,
    _bracket_coeffs,
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
    PoleError,
    UndefinedDualityError,
)
from .group import (
    _act,
    _ambient_defect_stack,
    _coords,
    _group,
    _one_param,
    _series,
    metric_matrix,
    rep,
    rep_basis,
)
from .poisson import (
    _PAIRS,
    _UPPER,
    _bracket,
    _invariant_fields,
    _invariant_vector_fields,
    _phs_bracket,
    _sklyanin_closed,
    GROUP_COORD_PAIRS,
    CoisotropyVerdict,
    DeformationKind,
    bialgebra_check,
    cocommutator_map,
    coisotropy_check,
    mcybe_defect,
    phs_points_bracket,
    rmatrix,
    schouten,
)
from .poisson import sklyanin_numeric  # noqa: F401  (perfbench/tests/test_tracer.py traces this binding)
from .quantum import (
    _coassociativity_defect,
    _coproduct_images,
    _image_stack,
    _relation_stack,
    coproduct_classical,
    coassociativity_defect,
    deformed_relation_defect,
    first_order_delta,
)
from .spaces import (
    Ambient,
    ParallelI,
    ParallelII,
    Polar,
    _ambient_fields,
    _ambient_of,
    _chart_of,
    _convert,
    _curvature_of,
    _fields_of,
    _laplacian_of,
    _matrix,
    _metric_of,
    from_ambient,
    gaussian_curvature,
    laplace_beltrami_apply,
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


def sample_parallel1_stack(rng: np.random.Generator, kp: KappaPair, frac: float, n: int) -> np.ndarray:
    """n parallel1 points (a1, a2), each coordinate drawn uniformly within
    its coord_bound of frac, a1 first, as the rows of an (n, 2) array."""
    b = np.array([coord_bound(kp.k1, frac), coord_bound(kp.k12, frac)])
    return rng.uniform(-b, b, size=(n, 2))


def _group_bounds(kp: KappaPair, frac: float) -> tuple[float, float, float]:
    return coord_bound(kp.k1, frac), coord_bound(kp.k12, frac), coord_bound(kp.k2, frac)


def sample_group_stack(rng: np.random.Generator, kp: KappaPair, frac: float, n: int) -> np.ndarray:
    """n group points (a1, a2, xi), drawn as sample_parallel1_stack draws,
    as the rows of an (n, 3) array."""
    b = np.array(_group_bounds(kp, frac))
    return rng.uniform(-b, b, size=(n, 3))


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
        if not self.z_values:
            raise ConfigError("need at least one deformation parameter z")
        for z in self.z_values:
            if not math.isfinite(z) or z == 0.0:
                raise ConfigError(f"z must be finite and nonzero, got {z!r}")
        if self.sample_count < 1:
            raise ConfigError(f"sample count must be positive, got {self.sample_count}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        grid = tuple(sorted(self.kappa_grid, key=lambda kp: (kp.k1, kp.k2)))
        zs = tuple(sorted(self.z_values))
        return replace(self, kappa_grid=grid, z_values=zs)


def kappa_grid_from_name(name: str) -> tuple[KappaPair, ...]:
    try:
        return _KAPPA_GRIDS[name]
    except KeyError:
        raise ConfigError(f"unknown kappa grid {name!r}, expected one of {KAPPA_GRID_NAMES}") from None


# a block: float defects in the order of the check's sample loop, and
# name(i), the location of entry i of the raveled array
Block = tuple[np.ndarray, Callable[[int], str]]
Blocks = Iterator[Block]
CheckFn = Callable[[SweepConfig, np.random.Generator], Blocks]

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


def worst_defect(defects) -> tuple[float, int]:
    """The largest entry of the raveled defects, with nan read as inf, and
    the index of its first occurrence; (0.0, -1) when there is none."""
    d = np.ravel(defects)
    if not d.size:
        return 0.0, -1
    d = np.where(np.isnan(d), math.inf, d)
    i = int(np.argmax(d))
    return float(d[i]), i


def _kept(defects, keep, name: Callable[[int], str]) -> Block:
    """The entries of the raveled defects where keep is true, each named as
    in defects."""
    idx = np.flatnonzero(keep)
    return np.ravel(defects)[idx], lambda j: name(int(idx[j]))


class _Stage(NamedTuple):
    """A stage that a sample loop runs before entry `entry` of each sample,
    evaluated by a stack form: bad flags the samples where it fails, and
    again(j) evaluates it at sample j with ktrig as the steps, which raises
    the error of its first failing step.  An error in skips (the loop's
    `except ChartDomainError`) drops the entry.  A stage whose again is None
    drops every entry it flags."""

    bad: np.ndarray
    again: Callable[[int], object] | None
    entry: int = 0
    skips: type[Exception] | tuple = ()


def _survives(stages: Sequence[_Stage], i: int, width: int = 1) -> bool:
    """Whether entry i, of samples of width entries, survives the stages
    that flag it, each evaluated again in the order given: False where a
    stage with no replay or an error in that stage's skips drops it; any
    other error propagates."""
    j, entry = divmod(i, width)
    for t in stages:
        if t.entry == entry and t.bad[j]:
            if t.again is None:
                return False
            try:
                t.again(j)
            except t.skips:
                return False
    return True


def _staged(form: Callable, *rows: np.ndarray, entry: int = 0, skips: type[Exception] | tuple = ()) -> tuple:
    """form(*rows, steps) at the samples, the leading axis of each of rows,
    through a _Flag, and the _Stage of that form before entry `entry`, which
    evaluates form(*(r[j] for r in rows), ktrig) again at sample j."""
    flag = _Flag(len(rows[0]))
    return form(*rows, flag), _Stage(flag.bad, lambda j: form(*(r[j] for r in rows), ktrig), entry, skips)


def _flagged(defects: np.ndarray, name: Callable[[int], str], *stages: _Stage) -> Blocks:
    """The block (defects, name) of a stack form's samples, the rows of
    defects, whose flagged entries survive their stages (_survives) in loop
    order.  A GeometryError from a stage ends the check after a block of the
    entries before it."""
    width = defects.shape[1] if defects.ndim > 1 else 1
    keep = np.ones(defects.size, dtype=bool)
    for i in sorted({j * width + t.entry for t in stages for j in np.flatnonzero(t.bad).tolist()}):
        try:
            keep[i] = _survives(stages, i, width)
        except GeometryError:
            yield _kept(defects, keep & (np.arange(keep.size) < i), name)
            raise
    yield _kept(defects, keep, name)


def _accepted(exc: type[Exception], fn: Callable[..., object], *args: object) -> float:
    """1.0 when fn(*args) returns, 0.0 when it raises exc: the defect of a
    guard that must reject its input."""
    try:
        fn(*args)
    except exc:
        return 0.0
    return 1.0


def _rejection_sampled(
    rng: np.random.Generator,
    loops: Sequence[tuple[int, int]],
    draw: Callable[[list[int]], object],
    block: Callable[[list[int], object], tuple[Sequence[_Stage], Callable[[int], float]]],
    name: Callable[[int], str],
) -> Blocks:
    """The defects of the rejection-sampling loops `while done < want and
    attempts < cap`, loops[l] = (want, cap), run in turn, with their
    attempts evaluated a block at a time (see the module docstring); an
    attempt of loop l is named name(l).

    draw(ids) draws from rng one candidate per attempt k, of loop ids[k], as
    the loops would.  block(ids, candidates) evaluates them and returns
    (stages, defect): attempt k is accepted where it survives its stages
    (_survives), and only then is defect(k) evaluated.  A block holds the
    attempts left if each is accepted, to the end of the last loop; after a
    rejection, twice the attempts left in that loop alone.  The accepted attempts of a block are one block of defects.
    """
    loop = done = attempts = 0
    rejected = False
    while loop < len(loops):
        want, cap = loops[loop]
        ids = [loop] * min(cap - attempts, (2 if rejected else 1) * (want - done))
        if not rejected:
            ids += [later for later in range(loop + 1, len(loops)) for _ in range(min(loops[later]))]
        state = rng.bit_generator.state
        stages, defect = block(ids, draw(ids))
        made, accepted, defects, error = 0, [], [], None
        try:
            while made < len(ids) and ids[made] == loop:
                if _survives(stages, made):
                    defects.append(defect(made))
                    accepted.append(made)
                    done += 1
                else:
                    rejected = True
                made += 1
                attempts += 1
                if done == loops[loop][0] or attempts == loops[loop][1]:
                    loop, done, attempts, rejected = loop + 1, 0, 0, False
        except GeometryError as exc:
            error = exc
        yield np.array(defects, dtype=float), lambda j: name(ids[accepted[j]])
        if error is not None:
            raise error
        rng.bit_generator.state = state
        draw(ids[:made])


# --- trig suite --------------------------------------------------------------
#
# On TRIG_GRID, at labels in [-2, 2], no ck or sk overflows, and tk is read
# only where |ck| > 0.2, away from its poles: the steps of these checks flag
# nothing that their entries read.  A stage with no replay drops the tk entry
# elsewhere, a nan ck among them.


@check(1e-12)
def _check_trig_identity(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    x = TRIG_GRID
    for k in TRIG_KAPPAS + tuple(rng.uniform(-2.0, 2.0, 3)):
        steps = _Flag(x.shape)
        c, s = steps.ck(k, x), steps.sk(k, x)
        # each x has the entries (identity, versine, tangent)
        defects = np.stack([c * c + k * s * s - 1.0, k * steps.vk(k, x) - (1.0 - c), steps.tk(k, x) * c - s], axis=1)
        yield from _flagged(
            np.abs(defects),
            lambda i: f"{('identity', 'versine', 'tangent')[i % 3]} k={k:g} x={x[i // 3]:g}",
            _Stage(~(np.abs(c) > 0.2), None, 2),
        )


@check(1e-12)
def _check_trig_addition(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    ck, sk = ktrig.ck_array, ktrig.sk_array
    for k in TRIG_KAPPAS:
        # the grid (x, x), then the samples (x, y), each with a ck and an sk entry
        x, y = np.concatenate([np.stack([TRIG_GRID] * 2), rng.uniform(-2.0, 2.0, (cfg.sample_count, 2)).T], axis=1)
        cx, sx, cy, sy = ck(k, x), sk(k, x), ck(k, y), sk(k, y)
        defects = np.stack([ck(k, x + y) - (cx * cy - k * sx * sy), sk(k, x + y) - (sx * cy + cx * sy)], axis=1)
        doubles = 2 * len(TRIG_GRID)
        yield np.abs(defects), lambda i: f"{'double' if i < doubles else 'sum'} {('ck', 'sk')[i % 2]} k={k:g}"


@check(1e-8)
def _check_trig_derivatives(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    h = 1e-5
    x = TRIG_GRID
    for k in TRIG_KAPPAS:
        steps = _Flag(x.shape)
        dc = (steps.ck(k, x + h) - steps.ck(k, x - h)) / (2.0 * h)
        ds = (steps.sk(k, x + h) - steps.sk(k, x - h)) / (2.0 * h)
        dt = (steps.tk(k, x + h) - steps.tk(k, x - h)) / (2.0 * h)
        c = steps.ck(k, x)
        expect = -k * steps.sk(k, x), c, 1.0 / (c * c)
        defects = np.stack([np.abs(d - e) / np.maximum(1.0, np.abs(e)) for d, e in zip((dc, ds, dt), expect)], axis=1)
        yield from _flagged(
            defects,
            lambda i: f"d {('ck', 'sk', 'tk')[i % 3]} k={k:g} x={x[i // 3]:g}",
            _Stage(~(np.abs(c) > 0.2), None, 2),
        )


@check(1e-12)
def _check_trig_taylor_match(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    # the small-label branch must agree with the exact circular/hyperbolic
    # forms evaluated just below the switch point
    for k in (9e-13, -9e-13):
        r = math.sqrt(abs(k))
        cf, sf = (math.cos, math.sin) if k > 0 else (math.cosh, math.sinh)
        ec = np.array([cf(v) for v in r * TRIG_GRID])
        es = np.array([sf(v) for v in r * TRIG_GRID]) / r
        defects = [np.abs(ktrig.ck_array(k, TRIG_GRID) - ec), np.abs(ktrig.sk_array(k, TRIG_GRID) - es) * r]
        yield np.stack(defects, axis=1), lambda i: f"taylor {('ck', 'sk')[i % 2]} k={k:g}"


@check(1e-10)
def _check_trig_inverse_roundtrip(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for k in TRIG_KAPPAS:
        if k > 0:
            hp = ktrig.half_period(k)
            x = rng.uniform(-hp * 0.999, hp * 0.999, cfg.sample_count)
        else:
            x = rng.uniform(-3.0, 3.0, cfg.sample_count)
        y, again = _staged(lambda x, steps: steps.kinv(k, steps.sk(k, x), steps.ck(k, x)), x)
        yield from _flagged(np.abs(y - x), lambda i: f"kinv k={k:g} x={x[i]:g}", again)
    # half period lands on the antipodal cosine for positive labels
    ks = (0.25, 1.0, 2.0)
    yield np.array([abs(ktrig.ck(k, ktrig.half_period(k)) + 1.0) for k in ks]), lambda i: f"half period k={ks[i]:g}"


# --- algebra suite -----------------------------------------------------------


@check(1e-13)
def _check_algebra_jacobi(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    pairs = cfg.kappa_grid + tuple(KappaPair(*rng.uniform(-2, 2, 2)) for _ in range(3))
    for kp in pairs:
        # three elements per sample, as coefficient rows (3, n)
        x, y, zz = rng.uniform(-2.0, 2.0, (cfg.sample_count, 3, 3)).transpose(1, 2, 0)

        def b(u, v):
            return np.array(_bracket_coeffs(kp, u, v))

        total = b(b(x, y), zz) + b(b(y, zz), x) + b(b(zz, x), y)
        yield np.abs(total).max(axis=0), lambda i: _kp_tag(kp)


@check(1e-12)
def _check_algebra_casimir_commutes(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        coeffs = casimir_coeffs(kp)
        mats = np.array(rep_basis(kp))
        cas = sum(c * (m @ m) for c, m in zip(coeffs, mats))
        defects = np.abs(cas @ mats - mats @ cas).max(axis=(1, 2))
        yield defects, lambda i: _kp_tag(kp)


@check(1e-12)
def _check_algebra_rep_homomorphism(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        # two elements per sample
        x, y = rng.uniform(-2.0, 2.0, (cfg.sample_count, 2, 3)).transpose(1, 0, 2)
        lhs = rep(kp, np.stack(_bracket_coeffs(kp, x.T, y.T), axis=-1))
        rx, ry = rep(kp, x), rep(kp, y)
        defects = np.abs(lhs - (rx @ ry - ry @ rx)).max(axis=(1, 2))
        yield defects, lambda i: _kp_tag(kp)


@check(1e-12)
def _check_algebra_rep_metricity(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        im = metric_matrix(kp)
        mats = np.array(rep_basis(kp))
        p = mats[0]
        form = np.abs(np.swapaxes(mats, 1, 2) @ im + im @ mats).max(axis=(1, 2))
        cube = np.abs(p @ p @ p + kp.k1 * p).max()
        yield np.append(form, cube), lambda i: f"cube {_kp_tag(kp)}" if i == 3 else _kp_tag(kp)


@check(0.5)
def _check_algebra_classification(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    defects = []
    for kp in NORMALIZED_PAIRS:
        label = classify(kp)
        got = label.name.value, label.group_name, (label.h0, label.h01, label.h02)
        defects.append(0.0 if got == _CLASSIFICATION_ROWS[kp.signs()] else 1.0)
    # scaled pairs classify like their sign pattern
    scaled = []
    for _ in range(cfg.sample_count):
        k1, k2 = rng.uniform(0.1, 3.0, 2) * rng.choice([-1.0, 1.0], 2)
        scaled.append(KappaPair(float(k1), float(k2)))
    defects += [0.0 if classify(kp).name.value == _CLASSIFICATION_ROWS[kp.signs()][0] else 1.0 for kp in scaled]
    kps = NORMALIZED_PAIRS + tuple(scaled)
    kp = kappa_from_kinematics(-1.0, 3.0)
    defects.append(abs(kp.k1 - 1.0) + abs(kp.k2 + 1.0 / 9.0))
    notes = ["kinematics roundtrip"]
    if _accepted(BadSpeedError, kappa_from_kinematics, 1.0, 0.0):
        defects.append(1.0)
        notes.append("zero speed accepted")
    yield np.array(defects), lambda i: _kp_tag(kps[i]) if i < len(kps) else notes[i - len(kps)]


# --- duality suite -----------------------------------------------------------


def _label_distance(a: KappaPair, b: KappaPair) -> float:
    return abs(a.k1 - b.k1) + abs(a.k2 - b.k2)


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for each row v of the (N, 3) array v."""
    return (m @ v[..., None])[..., 0]


def duality_morphism_defects(
    kp: KappaPair, kpd: KappaPair, m: np.ndarray, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Bracket-morphism defect max|m [x, y]_kpd - [m x, m y]_kp| of the
    duality matrix m from the algebra labelled kpd to the one labelled kp,
    at `count` pairs of elements, each with its coefficients drawn from rng
    in [-2, 2); an overflow at huge labels is an inf or nan defect."""
    x, y = rng.uniform(-2.0, 2.0, size=(count, 2, 3)).transpose(1, 0, 2)
    lhs = _apply(m, np.stack(_bracket_coeffs(kpd, x.T, y.T), axis=-1))
    rhs = np.stack(_bracket_coeffs(kp, _apply(m, x).T, _apply(m, y).T), axis=-1)
    return np.abs(lhs - rhs).max(axis=1)


@check(1e-13)
def _check_duality_morphism(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
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
            yield duality_morphism_defects(kp, kpd, m, rng, cfg.sample_count), lambda i: f"{name.value} {_kp_tag(kp)}"


@check(1e-13)
def _check_duality_involution(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    pairs = cfg.kappa_grid + tuple(KappaPair(*rng.uniform(-2, 2, 2)) for _ in range(3))
    for kp in pairs:
        kpd = duality_kappa(DualityName.D0, kp)
        m = duality_matrix(DualityName.D0, kpd) @ duality_matrix(DualityName.D0, kp)
        defects = [np.abs(m - np.eye(3)).max(), _label_distance(duality_kappa(DualityName.D0, kpd), kp)]
        defects.append(np.abs(duality_matrix(DualityName.ID, kp) - np.eye(3)).max())
        yield np.array(defects), lambda i: (_kp_tag(kp), f"labels {_kp_tag(kp)}", "identity map")[i]


@check(1e-13)
def _check_duality_kappa_action(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    sphere, ads, ds = KappaPair(1.0, 1.0), KappaPair(1.0, -1.0), KappaPair(-1.0, -1.0)
    images = [duality_kappa(name, sphere) for name in DUALITIES]
    yield np.array([_label_distance(kpd, sphere) for kpd in images]), lambda i: f"sphere under {DUALITIES[i].value}"
    swaps = [_label_distance(duality_kappa(DualityName.D2, a), b) for a, b in ((ads, ds), (ds, ads))]
    yield np.array(swaps), lambda i: ("swap forward", "swap back")[i]
    # triple application cycles the labels, six applications restore the map
    for kp in (KappaPair(1.0, 1.0), KappaPair(1.0, -1.0), KappaPair(-1.0, 1.0), KappaPair(-1.0, -1.0)):
        acc = np.eye(3)
        cur = kp
        for _ in range(6):
            acc = duality_matrix(DualityName.D0D1, cur) @ acc
            cur = duality_kappa(DualityName.D0D1, cur)
        defects = [np.abs(acc - np.eye(3)).max(), _label_distance(cur, kp)]
        yield np.array(defects), lambda i: f"sixth {('power', 'labels')[i]} {_kp_tag(kp)}"


@check(0.5)
def _check_duality_restrictions(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    cases = (
        (DualityName.D1, KappaPair(0.0, 1.0)),
        (DualityName.D0D1, KappaPair(0.0, -1.0)),
        (DualityName.D2, KappaPair(1.0, 0.0)),
        (DualityName.D0D2, KappaPair(-1.0, 0.0)),
    )
    defects = [_accepted(UndefinedDualityError, apply_duality, name, kp, BASIS[0]) for name, kp in cases]
    yield np.array(defects), lambda i: f"{cases[i][0].value} accepted {_kp_tag(cases[i][1])}"
    grid = cfg.kappa_grid
    for name in DUALITIES:
        defects = []
        for kp in grid:
            restricted = (
                (name in (DualityName.D1, DualityName.D0D1) and kp.k1 == 0.0)
                or (name in (DualityName.D2, DualityName.D0D2) and kp.k2 == 0.0)
            )
            accepted = _accepted(UndefinedDualityError, apply_duality, name, kp, BASIS[1])
            defects.append(accepted if restricted else 1.0 - accepted)
        yield np.array(defects), lambda i: f"{name.value} {_kp_tag(grid[i])}"


# --- group suite -------------------------------------------------------------


@check(1e-12)
def _check_group_closed_vs_series(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    ts = np.linspace(-2.0, 2.0, 21)
    for kp in cfg.kappa_grid:
        for gname, x in zip(GENERATOR_NAMES, rep_basis(kp)):

            def gap(t, steps):
                closed, series = _one_param(kp, gname, t, steps), _series(np.multiply.outer(t, x), steps)
                return np.abs(closed - series).max(axis=(-2, -1))

            defects, again = _staged(gap, ts)
            yield from _flagged(defects, lambda i: f"{gname} {_kp_tag(kp)}", again)


@check(1e-12)
def _check_group_invariants(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        im = metric_matrix(kp)
        x = sample_group_stack(rng, kp, 0.4, 100)
        g, again = _staged(partial(_group, kp), x)
        form = np.abs(np.swapaxes(g, 1, 2) @ im @ g - im).max(axis=(1, 2))
        det = np.abs(np.linalg.det(g) - 1.0)
        yield from _flagged(np.stack([form, det], axis=1), lambda i: ("", "det ")[i % 2] + _kp_tag(kp), again)


@check(1e-10)
def _check_group_coords_roundtrip(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        x = sample_group_stack(rng, kp, 0.35, cfg.sample_count)
        back, again = _staged(lambda x, steps: _coords(kp, _group(kp, x, steps), steps), x)
        yield from _flagged(np.abs(back - x).max(axis=1), lambda i: _kp_tag(kp), again)


@check(1e-10)
def _check_group_action_surface(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        # each sample draws its group point, then a parallel1 point (a1, a2)
        b = _group_bounds(kp, 0.35)
        b = np.array(b + b[:2])
        x = rng.uniform(-b, b, size=(cfg.sample_count, 5))

        def group_and_image(x, steps):
            g = _group(kp, x[..., :3], steps)
            return g, _act(kp, g, _ambient_stack(kp, x[..., 3:], steps), steps)

        (g, moved), surface = _staged(group_and_image, x)
        expect, orbit = _staged(partial(_ambient_stack, kp), x, entry=1)
        # the orbit of the base point, the first column of g, recovers the
        # translation part; act at the base point cannot fail where g is finite
        orbit_defects = np.abs(g[:, :, 0] - expect).max(axis=1)
        moved_defects = _ambient_defect_stack(kp, moved)
        yield from _flagged(
            np.stack([moved_defects, orbit_defects], axis=1),
            lambda i: f"{('surface', 'orbit')[i % 2]} {_kp_tag(kp)}",
            surface,
            orbit,
        )


@check(1e-12)
def _check_group_sinh_identity(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    ts = np.array([-1.5, -0.4, 0.7, 2.0])
    for kp in cfg.kappa_grid:
        p = rep_basis(kp)[0]
        cube = np.abs(p @ p @ p + kp.k1 * p).max()
        yield np.array([cube]), lambda i: f"cube {_kp_tag(kp)}"

        def gap(t, steps):
            # the series of t p, then of -t p, then sk
            plus, minus = steps.each(_series, np.multiply.outer(np.stack([t, -t]), p))
            return np.abs(0.5 * (plus - minus) - np.multiply.outer(steps.sk(kp.k1, t), p)).max(axis=(-2, -1))

        defects, again = _staged(gap, ts)
        yield from _flagged(defects, lambda k: f"t={ts[k]:g} {_kp_tag(kp)}", again)


# --- geometry suite ----------------------------------------------------------


def _parallel1(x: np.ndarray) -> ParallelI:
    """The parallel1 points of the rows x, (..., 2 or more): a1, then a2."""
    return ParallelI(x[..., 0], x[..., 1])


@check(1e-12)
def _check_geometry_closed_forms(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    metric_rows, field_rows = _metric_rows(), _field_rows()
    for kp in NORMALIZED_PAIRS:
        x = sample_parallel1_stack(rng, kp, 0.35, cfg.sample_count)
        m, metric = _staged(lambda x, steps: _metric_of(kp, _parallel1(x), steps), x)
        # the literal rows are math.* code, one point at a time
        g11, g22 = np.array([metric_rows[kp.signs()](*a) for a in x.tolist()]).T
        ref = np.array([field_rows[kp.signs()](*a) for a in x.tolist()])
        defects = [abs(m.g11 - g11), abs(m.g12), abs(m.g22 - g22)]
        if kp.k2 == 0.0:
            sub = metric_subsidiary(kp, _parallel1(x))
            defects.append(abs(sub.g22 - 1.0) + abs(sub.g11) + abs(sub.g12))
        # a sample has one entry per label: the metric, then one per field
        labels = ("g11", "g12", "g22", "leaf")[: len(defects)] + GENERATOR_NAMES
        got, fields = _staged(partial(_field_matrix, kp), x, entry=len(labels) - 3)
        field = _max(abs(got - ref)[..., 0], abs(got - ref)[..., 1])
        defects = np.column_stack(np.broadcast_arrays(*defects, *field.T))
        yield from _flagged(defects, lambda i: f"{labels[i % len(labels)]} {_kp_tag(kp)}", metric, fields)


@check(1e-10)
def _check_geometry_chart_roundtrip(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        # each sample draws its point (a1, a2), then the radius r of a polar
        # point, which is the parallel1 point (r, a2)
        b1, b2 = coord_bound(kp.k1, 0.35), coord_bound(kp.k12, 0.35)
        x = rng.uniform([-b1, -b2, 0.2], [b1, b2, max(coord_bound(kp.k1, 0.3), 0.3)], size=(cfg.sample_count, 3))
        y = x[:, [2, 1]]
        direct, first = _staged(lambda x, steps: _convert(kp, _parallel1(x), "parallel1", steps), x)
        second, via = _staged(partial(_roundtrip, kp, "parallel2"), x, entry=1, skips=ChartDomainError)
        s, outside = _staged(partial(_ambient_stack, kp), y, entry=2)
        narrow = _near_polar_origin(kp, s)
        polar, around = _staged(partial(_roundtrip, kp, "polar"), y, entry=2, skips=ChartDomainError)
        back = zip((direct, second, polar), (x, x, y))
        defects = [_max(abs(q.a1 - a[:, 0]), abs(q.a2 - a[:, 1])) for q, a in back]
        # a sample has the entries (parallel1, parallel2, polar); the polar
        # roundtrip is evaluated away from the origin of the chart only
        yield from _flagged(
            np.stack(defects, axis=1),
            lambda i: f"{('parallel1', 'parallel2', 'polar')[i % 3]} {_kp_tag(kp)}",
            first,
            via,
            outside,
            _Stage(narrow, None, 2),
            around,
        )


def _near_polar_origin(kp: KappaPair, s: np.ndarray) -> np.ndarray:
    """The rows of the ambient points s, (N, 3), near the origin of the
    polar chart, s1^2 + k2 s2^2 < 0.1: a polar check samples away from it."""
    return s[:, 1] * s[:, 1] + kp.k2 * s[:, 2] * s[:, 2] < 0.1


def _field_matrix(kp: KappaPair, x: np.ndarray, steps) -> np.ndarray:
    """The parallel1 components, (..., 3, 2), of (J01, J02, J12) at the
    parallel1 points of the rows x, through steps (see ktrig)."""
    return _matrix(_fields_of(kp, _parallel1(x), steps))


def _roundtrip(kp: KappaPair, target: str, x: np.ndarray, steps) -> ParallelI:
    """convert(convert(p, target), "parallel1") of the parallel1 points p
    of the rows x, through steps (see ktrig)."""
    return _convert(kp, _convert(kp, _parallel1(x), target, steps), "parallel1", steps)


def _max(a, b):
    """max(a, b) elementwise as Python's max picks it: b only where b > a,
    so a nan in a is kept and a nan in b is not."""
    return np.where(b > a, b, a)


def _chart_derivative(kp: KappaPair, p: ParallelI | ParallelII | Polar, steps) -> np.ndarray:
    """Exact (..., 3, 2) derivative of to_ambient at two-coordinate chart
    points, from ck' = -kappa sk and sk' = ck, through steps (see ktrig)."""
    k1, k2, k12 = kp.k1, kp.k2, kp.k12
    if isinstance(p, ParallelI):
        c1, s1 = steps.ck(k1, p.a1), steps.sk(k1, p.a1)
        c2, s2 = steps.ck(k12, p.a2), steps.sk(k12, p.a2)
        return _matrix([[-k1 * s1 * c2, -k12 * c1 * s2], [c1 * c2, -k12 * s1 * s2], [0.0, c2]])
    if isinstance(p, ParallelII):
        c1, s1 = steps.ck(k1, p.b1), steps.sk(k1, p.b1)
        c2, s2 = steps.ck(k12, p.b2), steps.sk(k12, p.b2)
        return _matrix([[-k1 * s1 * c2, -k12 * c1 * s2], [c1, 0.0], [-k1 * s1 * s2, c1 * c2]])
    cr, sr = steps.ck(k1, p.r), steps.sk(k1, p.r)
    cp, sp = steps.ck(k2, p.phi), steps.sk(k2, p.phi)
    return _matrix([[-k1 * sr, 0.0], [cr * cp, -k2 * sr * sp], [cr * sp, sr * cp]])


def _pullback_terms(kp: KappaPair, target: str, x: np.ndarray, steps) -> tuple:
    """The chart derivatives at q = convert(p, target) and at p, and the
    metric matrices at p and at q, of the parallel1 points p of the rows x,
    through steps (see ktrig)."""
    p = _parallel1(x)
    q = _convert(kp, p, target, steps)
    dq, dp = _chart_derivative(kp, q, steps), _chart_derivative(kp, p, steps)
    return dq, dp, _metric_of(kp, p, steps).as_matrix(), _metric_of(kp, q, steps).as_matrix()


def _pullback_defect(jac: np.ndarray, gb: np.ndarray, ga: np.ndarray) -> np.ndarray:
    """max |J^T g_b J - g_a| of each (..., 2, 2) matrix."""
    return np.abs(np.swapaxes(jac, -1, -2) @ gb @ jac - ga).max(axis=(-2, -1))


@check(1e-8)
def _check_geometry_metric_pullback(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    # The chart Jacobian J = dq/dp solves D_target(q) J = D_parallel1(p)
    # exactly (both sides are derivatives of the same ambient point, and
    # D_target has full column rank inside the chart), so J^T g_q J = g_p
    # holds up to rounding in the ck/sk products and the 2x2 solve; the
    # tolerance has no truncation error to cover.
    for kp in cfg.kappa_grid:
        if kp.k2 == 0.0:
            continue
        # a parallel2 attempt draws a point (a1, a2); a polar one draws a
        # radius and a point, of which it keeps a2: a2 is the last draw of both
        b1, b2 = coord_bound(kp.k1, 0.3), coord_bound(kp.k12, 0.3)
        boxes = {"parallel2": ([-b1, -b2], [b1, b2]), "polar": ([0.2, -b1, -b2], [max(b1, 0.3), b1, b2])}
        for target, bounds in boxes.items():

            def draw(ids: list[int]) -> np.ndarray:
                return rng.uniform(*bounds, size=(len(ids), len(bounds[0])))

            def block(ids: list[int], x: np.ndarray) -> tuple:
                x = x[:, [0, -1]]  # the point (a1, a2)
                stages = []
                if target == "polar":
                    # a polar attempt is rejected near the origin of the chart
                    s, outside = _staged(partial(_ambient_stack, kp), x)
                    stages = [outside, _Stage(_near_polar_origin(kp, s), None)]
                (dq, dp, ga, gb), again = _staged(partial(_pullback_terms, kp, target), x, skips=ChartDomainError)

                def defect(k: int) -> float:
                    return float(_pullback_defect(np.linalg.lstsq(dq[k], dp[k], rcond=None)[0], gb[k], ga[k]))

                return [*stages, again], defect

            loops = [(cfg.sample_count, 20 * cfg.sample_count)]
            yield from _rejection_sampled(rng, loops, draw, block, lambda _: f"{target} {_kp_tag(kp)}")


@check(1e-6)
def _check_geometry_curvature(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        if kp.k2 == 0.0:
            continue
        x = sample_parallel1_stack(rng, kp, 0.3, cfg.sample_count)
        curvature, again = _staged(lambda x, steps: _curvature_of(kp, _parallel1(x), steps), x)
        yield from _flagged(np.abs(curvature - kp.k1), lambda i: _kp_tag(kp), again)


def _ambient_stack(kp: KappaPair, x: np.ndarray, steps) -> np.ndarray:
    """The ambient triples, (..., 3), of the parallel1 points of the rows x,
    through steps (see ktrig)."""
    return np.stack(np.broadcast_arrays(*_ambient_of(kp, _parallel1(x), steps)), axis=-1)


def _parallel1_stack(kp: KappaPair, s: np.ndarray, steps) -> np.ndarray:
    """The parallel1 points, (..., 2), of the ambient triples s, (..., 3),
    through steps (see ktrig)."""
    q = _chart_of(kp, *np.moveaxis(s, -1, 0), "parallel1", steps)
    return np.stack([q.a1, q.a2], axis=-1)


def _parallel1_each(kp: KappaPair, s: np.ndarray, steps) -> np.ndarray:
    """The parallel1 points, (k, ..., 2), of the ambient triples s,
    (..., k, 3), the k of a point one after another, through steps (see
    ktrig)."""
    return steps.each(partial(_parallel1_stack, kp), np.moveaxis(s, -2, 0))


def _flow(kp: KappaPair, mat: np.ndarray, x: np.ndarray, steps) -> np.ndarray:
    """The parallel1 images, (..., 2), of the parallel1 points x, (..., 2),
    under the ambient matrices mat, (..., 3, 3), through steps (see ktrig)."""
    return _parallel1_stack(kp, (mat @ _ambient_stack(kp, x, steps)[..., None])[..., 0], steps)


def _stencil(x: np.ndarray, h: float) -> np.ndarray:
    """The parallel1 points x, (..., 2), then their central-difference
    stencil of step h in (a1, a2) order: (5, ..., 2)."""
    return np.stack([x, x + [h, 0.0], x - [h, 0.0], x + [0.0, h], x - [0.0, h]])


def _flow_jacobian(kp: KappaPair, mat: np.ndarray, x: np.ndarray, h: float, steps) -> tuple:
    """The Jacobian, by central differences of step h, of the flow of mat at
    the parallel1 points x, (..., 2), and the metric matrix at their
    images, through steps (see ktrig)."""
    q = steps.each(partial(_flow, kp, mat), _stencil(x, h))
    jac = np.stack([(q[1] - q[2]) / (2.0 * h), (q[3] - q[4]) / (2.0 * h)], axis=-1)
    return jac, _metric_of(kp, _parallel1(q[0]), steps).as_matrix()


@check(1e-6)
def _check_geometry_killing_flow(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    h = 1e-6
    # (generator, name, t)
    flows = [(i, f"{gname} t={t:g}", t) for i, gname in enumerate(GENERATOR_NAMES) for t in (0.1, 0.3)]
    for kp in cfg.kappa_grid:
        if kp.k2 == 0.0:
            continue
        basis = rep_basis(kp)
        gens = np.array([-t * basis[i] for i, _, t in flows])
        b = np.array([coord_bound(kp.k1, 0.25), coord_bound(kp.k12, 0.25)])

        def draw(ids: list[int]) -> np.ndarray:
            return rng.uniform(-b, b, size=(len(ids), 2))

        def defect(gen: np.ndarray, x: np.ndarray, steps) -> np.ndarray:
            # the flow is built before its first attempt; the stencil starts
            # at the point, so the flow flags all the metric there flags
            jac, gq = _flow_jacobian(kp, _series(gen, steps), x, h, steps)
            return _pullback_defect(jac, gq, _metric_of(kp, _parallel1(x), steps).as_matrix())

        def block(ids: list[int], x: np.ndarray) -> tuple:
            defects, again = _staged(defect, gens[ids], x, skips=ChartDomainError)
            return [again], defects.tolist().__getitem__

        loops = [(5, 100)] * len(flows)
        yield from _rejection_sampled(rng, loops, draw, block, lambda f: f"{flows[f][1]} {_kp_tag(kp)}")


@check(1e-6)
def _check_geometry_killing_fields_flow(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    # the stored field components are the t-derivative at 0 of the inverse
    # one-parameter flow through the point
    h = 1e-6
    n = cfg.sample_count
    for kp in cfg.kappa_grid:
        gens = np.array([[-h * x, h * x] for x in rep_basis(kp)])
        exp_flag = _Flag(gens.shape[:2])
        mats = _series(gens, exp_flag)
        # the samples of J01, then of J02 and J12, each flowed by its own generator
        x = sample_parallel1_stack(rng, kp, 0.3, 3 * n)
        own = np.arange(3 * n), np.arange(3 * n) // n
        s, onto = _staged(partial(_ambient_stack, kp), x)
        # (sample, sign, 3)
        images = (mats[own[1]] @ s[:, None, :, None])[..., 0]
        fd = (images[:, 0] - images[:, 1]) / (2.0 * h)
        fa = _matrix(_ambient_fields(kp, *np.moveaxis(s, -1, 0)))[own]
        ambient_d = np.abs(fd - fa).max(axis=-1)
        (pp, pm), chart = _staged(partial(_parallel1_each, kp), images, entry=1, skips=ChartDomainError)
        fc, fields = _staged(partial(_field_matrix, kp), x, entry=1)
        fc = fc[own]
        d = (pp - pm) / (2.0 * h)
        chart_d = _max(abs(d[:, 0] - fc[:, 0]), abs(d[:, 1] - fc[:, 1]))
        # a sample has the entries (ambient, chart); hand-built: the flows of a
        # generator are built once, before its first sample, and a form of the
        # samples would build them again at each
        built = _Stage(exp_flag.bad.any(axis=1)[own[1]], lambda j: ktrig.each(_series, gens[j // n]))
        yield from _flagged(
            np.stack([ambient_d, chart_d], axis=1),
            lambda e: f"{('ambient', 'chart')[e % 2]} {GENERATOR_NAMES[e // (2 * n)]} {_kp_tag(kp)}",
            built,
            onto,
            chart,
            fields,
        )


@check(1e-5)
def _check_geometry_field_commutators(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    h = 1e-5
    for kp in cfg.kappa_grid:
        ct = structure_tensor(kp)
        x = sample_parallel1_stack(rng, kp, 0.3, max(4, cfg.sample_count // 4))

        def fields(x, steps):
            return steps.each(partial(_field_matrix, kp), _stencil(x, h))

        (base, up, um, vp, vm), again = _staged(fields, x)
        du = (up - um) / (2.0 * h)
        dv = (vp - vm) / (2.0 * h)
        defects = []
        for i, j in _PAIRS:
            comm = (
                base[:, i, 0, None] * du[:, j] + base[:, i, 1, None] * dv[:, j]
                - base[:, j, 0, None] * du[:, i] - base[:, j, 1, None] * dv[:, i]
            )
            expect = ct[i, j, 0] * base[:, 0] + ct[i, j, 1] * base[:, 1] + ct[i, j, 2] * base[:, 2]
            defects.append(np.abs(comm - expect).max(axis=-1))

        yield from _flagged(
            np.stack(defects, axis=-1), lambda e: "[{}{}] {}".format(*_PAIRS[e % 3], _kp_tag(kp)), again
        )


@check(1e-5)
def _check_geometry_laplacian(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    # oracle: Casimir-weighted second differences along the generator flows,
    # with the O(h^2) truncation cancelled between steps h and 2h
    fine_coarse = (1e-3, 2e-3)

    def funcs(a1, a2):  # the three test functions, stacked
        return np.stack([np.sin(a1) + a2 * a2, a1 * a2, np.cos(a2) * a1])

    for kp in cfg.kappa_grid:
        coeffs = casimir_coeffs(kp)
        # (step, generator, sign): the flows of exp(-h x) and exp(h x)
        gens = np.array([[[-h * x, h * x] for x in rep_basis(kp)] for h in fine_coarse])
        exp_flag = _Flag(gens.shape[:3])
        mats = _series(gens, exp_flag).reshape(-1, 3, 3)
        # four samples per function: sample j is of function j // 4
        x = sample_parallel1_stack(rng, kp, 0.3, 12)
        own = np.arange(12) // 4, np.arange(12)
        lb, operator = _staged(lambda x, steps: _laplacian_of(kp, funcs, _parallel1(x), steps), x)

        def flows(x, steps):  # the image of a point under each flow in turn
            return _parallel1_each(kp, (mats @ _ambient_stack(kp, x, steps)[..., None, :, None])[..., 0], steps)

        q, flown = _staged(flows, x, skips=ChartDomainError)
        # (function, step, generator, sign, sample)
        fq = funcs(q[..., 0], q[..., 1]).reshape(3, *gens.shape[:3], 12)
        f0 = funcs(x[:, 0], x[:, 1])
        fine, coarse = (
            sum(c * (fq[:, n, g, 0] - 2.0 * f0 + fq[:, n, g, 1]) / (h * h) for g, c in enumerate(coeffs))
            for n, h in enumerate(fine_coarse)
        )
        # hand-built: the flows are built once, before the first sample, and
        # a form of the samples would build them again at each
        built = _Stage(np.full(12, exp_flag.bad.any()), lambda j: ktrig.each(_series, gens.reshape(-1, 3, 3)))
        defects = np.abs(lb - (4.0 * fine - coarse) / 3.0)[own]
        yield from _flagged(defects, lambda e: _kp_tag(kp), built, operator, flown)
    # flat-space reference values
    kp, p = KappaPair(0.0, -1.0), ParallelI(0.3, -0.2)
    flat = [abs(laplace_beltrami_apply(kp, f, p)) for f in (lambda a1, a2: a1 * a2, lambda a1, a2: 4.5)]
    yield np.array(flat), lambda e: ("product", "constant")[e]


@check(1e-12)
def _check_geometry_foliation(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        if kp.k2 != 0.0:
            continue
        x = sample_parallel1_stack(rng, kp, 0.4, cfg.sample_count)
        fc, fields = _staged(partial(_field_matrix, kp), x)
        # fibers a1 = const are preserved by the isotropy directions; a
        # sample has the entries (J02, J12, flow J1, flow J2), and each flow
        # is built before the first sample: where one fails, all are flagged
        defects, stages = [np.abs(fc[:, 1:, 0])], [fields]
        for k, gen in enumerate(-0.3 * np.array(rep_basis(kp)[1:])):
            q, flow = _staged(lambda x, steps, g=gen: _flow(kp, _series(g, steps), x, steps), x, entry=2 + k)
            defects.append(np.abs(q[:, 0] - x[:, 0]))
            stages.append(flow)
        yield from _flagged(
            np.column_stack(defects),
            lambda e: f"{('J02', 'J12', 'flow J1', 'flow J2')[e % 4]} {_kp_tag(kp)}",
            *stages,
        )


@check(0.5)
def _check_geometry_domain_guards(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    sphere = KappaPair(1.0, 1.0)
    kp = KappaPair(1.0, -1.0)
    left = to_ambient(kp, ParallelI(-0.8, 0.1))
    guards = {
        "curvature k2=0": (DegenerateMetricError, gaussian_curvature, KappaPair(1.0, 0.0), ParallelI(0.1, 0.2)),
        "polar origin": (ChartDomainError, from_ambient, sphere, Ambient(1.0, 0.0, 0.0), "polar"),
        "parallel1 pole": (ChartDomainError, from_ambient, sphere, Ambient(0.0, 0.0, 1.0), "parallel1"),
        "off surface": (OffSurfaceError, from_ambient, sphere, Ambient(2.0, 0.0, 0.0), "parallel1"),
        "negative radius": (ChartDomainError, to_ambient, sphere, Polar(-0.5, 0.1)),
        "polar wedge": (ChartDomainError, from_ambient, kp, left, "polar"),
    }
    names = list(guards)
    yield np.array([_accepted(*guard) for guard in guards.values()]), names.__getitem__


# --- bialgebra suite ---------------------------------------------------------


def _first_kind_images(kp: KappaPair, z) -> np.ndarray:
    """delta(J01) = 0, delta(J02) = z k2 J01^J02, delta(J12) = z k2 J01^J12,
    at z or an array of them: (..., 3 generators, 3 pairs)."""
    d = np.zeros(np.shape(z) + (3, 3))
    d[..., 1, 0] = d[..., 2, 1] = z * kp.k2
    return d


def _second_kind_images(kp: KappaPair, z) -> np.ndarray:
    """delta(J01) = z J01^J02, delta(J02) = 0, delta(J12) = -z J02^J12."""
    d = np.zeros(np.shape(z) + (3, 3))
    d[..., 0, 0], d[..., 2, 2] = z, -z
    return d


_KIND_IMAGES = {
    DeformationKind.FIRST_KIND: _first_kind_images,
    DeformationKind.SECOND_KIND: _second_kind_images,
}

# expected coefficient of [[r, r]] on J01 ^ J02 ^ J12, by deformation kind
SCHOUTEN_COEFFICIENTS: dict[DeformationKind, Callable[[KappaPair, np.ndarray], np.ndarray]] = {
    DeformationKind.FIRST_KIND: lambda kp, z: z * z * kp.k2,
    DeformationKind.SECOND_KIND: lambda kp, z: z * z,
}


def kind_stack(
    fn: Callable, zs: Sequence[float], kinds: Sequence[DeformationKind] = tuple(DeformationKind)
) -> np.ndarray:
    """fn(kind, z) over the array of the zs, one call per kind, stacked on a
    kind axis after the z axis: the (z, kind) rows of one label pair, with
    shape (len(zs), len(kinds), ...), in the order z, then kind.  A value
    that overflows is inf or nan."""
    z = np.array(zs, dtype=float)
    return np.stack([fn(kind, z) for kind in kinds], axis=1)


def _kind_rows(kp: KappaPair, values: np.ndarray, fmt: str = "{kind} {kp}", inner: Sequence = ("",)) -> Block:
    """The block of one label pair's (z, kind, inner) stack, each entry
    named fmt of its kind, its inner name and the label pair."""
    rows = list(itertools.product(DeformationKind, inner))

    def name(i: int) -> str:
        kind, x = rows[i % len(rows)]
        return fmt.format(kind=kind.value, inner=x, kp=_kp_tag(kp))

    return values, name


@check(1e-13)
def _check_bialgebra_cocommutator(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        images = cocommutator_map(kp, kind_stack(rmatrix, cfg.z_values))
        literal = kind_stack(lambda kind, z: _KIND_IMAGES[kind](kp, z), cfg.z_values)
        defects = np.abs(images - literal).max(axis=-1)
        yield _kind_rows(kp, defects, "{kind} {inner} {kp}", GENERATOR_NAMES)


@check(1e-13)
def _check_bialgebra_cocycle(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        cocycle, _, _ = bialgebra_check(kp, cocommutator_map(kp, kind_stack(rmatrix, cfg.z_values)))
        yield _kind_rows(kp, cocycle)


@check(1e-13)
def _check_bialgebra_dual_jacobi(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        _, jacobi, f = bialgebra_check(kp, cocommutator_map(kp, kind_stack(rmatrix, cfg.z_values)))
        # [e^j, e^k] of the dual algebra reads the e_j ^ e_k components of the images
        literal = kind_stack(lambda kind, z: _KIND_IMAGES[kind](kp, z), cfg.z_values)
        dual = np.abs(f[..., _UPPER[0], _UPPER[1], :] - np.swapaxes(literal, -1, -2)).max(axis=-1)
        # each row has its Jacobi defect, then its dual brackets in _PAIRS order
        inner = ("", *(f"dual [{j}{k}] " for j, k in _PAIRS))
        yield _kind_rows(kp, np.concatenate([jacobi[..., None], dual], axis=-1), "{inner}{kind} {kp}", inner)


@check(1e-13)
def _check_bialgebra_schouten(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        coeff = schouten(kp, kind_stack(rmatrix, cfg.z_values))
        expected = kind_stack(lambda kind, z: SCHOUTEN_COEFFICIENTS[kind](kp, z), cfg.z_values)
        yield _kind_rows(kp, np.abs(coeff - expected))


@check(1e-13)
def _check_bialgebra_mcybe(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        yield _kind_rows(kp, mcybe_defect(kp, kind_stack(rmatrix, cfg.z_values)))


@check(0.5)
def _check_bialgebra_coisotropy(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    gens = ("J01", "J12", "J02")
    for kp in cfg.kappa_grid:
        images = cocommutator_map(kp, rmatrix(DeformationKind.FIRST_KIND, cfg.z_values))
        expect = (
            CoisotropyVerdict.POISSON_SUBGROUP
            if kp.k2 == 0.0
            else CoisotropyVerdict.COISOTROPIC
        )
        got = np.stack([coisotropy_check(kp, images, gen) for gen in gens], axis=-1)
        wrong = got != np.array([CoisotropyVerdict.POISSON_SUBGROUP, expect, expect], dtype=object)
        yield wrong.astype(float), lambda i: f"{gens[i % 3]} {_kp_tag(kp)}"


# --- sklyanin suite ----------------------------------------------------------

@check(1e-8)
def _check_sklyanin_fields(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        x = sample_group_stack(rng, kp, 0.35, cfg.sample_count)

        def gaps(x, steps):  # the closed-form fields, then the oracle's
            closed = _invariant_vector_fields(kp, *np.moveaxis(x, -1, 0), steps)
            numeric = _invariant_fields(kp, x, steps)
            pairs = (closed.left, numeric.left), (closed.right, numeric.right)
            return [np.abs(c - n).max(axis=(-2, -1)) for c, n in pairs]

        defects, again = _staged(gaps, x)
        yield from _flagged(np.stack(defects, axis=1), lambda i: f"{('left', 'right')[i % 2]} {_kp_tag(kp)}", again)


def sklyanin_pair_defects(kp: KappaPair, z: float, x: np.ndarray, steps) -> np.ndarray:
    """|closed - numeric| of the first-kind bracket {f, g} for each pair
    (f, g) of GROUP_COORD_PAIRS, at the points (a1, a2, xi) of x, (..., 3),
    as (..., 3), through steps (see ktrig).

    Both routes give the bracket matrices of all points at once, the numeric
    one from the oracle invariant fields.  The numeric route runs first, so
    at one point with ktrig as the steps its errors take precedence.
    """
    numeric = _bracket(rmatrix(DeformationKind.FIRST_KIND, z), _invariant_fields(kp, x, steps), steps)
    closed = _sklyanin_closed(kp, z, x, steps)
    return np.abs(closed - numeric)[..., _UPPER[0], _UPPER[1]]


def _pair_name(kp: KappaPair) -> Callable[[int], str]:
    """The name of entry i of (point, pair of GROUP_COORD_PAIRS) defects."""
    return lambda i: "{{{},{}}} {}".format(*GROUP_COORD_PAIRS[i % 3], _kp_tag(kp))


@check(1e-6)
def _check_sklyanin_closed_vs_numeric(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        for z in cfg.z_values:
            x = sample_group_stack(rng, kp, 0.35, 50)
            defects, again = _staged(partial(sklyanin_pair_defects, kp, z), x)
            yield from _flagged(defects, _pair_name(kp), again)


@check(1e-5)
def _check_sklyanin_jacobi(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    # sum over cyclic (a, b, c) of {{x_a, x_b}, x_c} = grad P[a, b] . P[:, c],
    # each gradient by central differences of the bracket matrix
    h = 1e-5
    for kp in cfg.kappa_grid:
        for z in cfg.z_values:
            x = sample_group_stack(rng, kp, 0.3, max(3, cfg.sample_count // 5))

            def brackets(x, steps):  # at the point, then at the point + and - each step
                points = np.stack([x, *(y for step in h * np.eye(3) for y in (x + step, x - step))])
                return steps.each(partial(_sklyanin_closed, kp, z), points)

            p, again = _staged(brackets, x)
            dp = np.stack([p[1] - p[2], p[3] - p[4], p[5] - p[6]], axis=1) / (2.0 * h)
            total = sum(
                (dp[:, None, :, a, b] @ p[0, :, :, c, None])[:, 0, 0]
                for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
            )
            yield from _flagged(np.abs(total), lambda i: _kp_tag(kp), again)


@check(1e-12)
def _check_sklyanin_specializations(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    rows = _sklyanin_rows()
    for kp in NORMALIZED_PAIRS:
        if kp.k2 == 0.0:
            continue
        row = rows[kp.signs()]
        for z in cfg.z_values:
            x = sample_group_stack(rng, kp, 0.35, cfg.sample_count)
            got, again = _staged(lambda x, steps: _sklyanin_closed(kp, z, x, steps)[..., _UPPER[0], _UPPER[1]], x)
            # the literal rows are math.* code, one point at a time
            ref = np.array([row(*point, z) for point in x.tolist()])
            yield from _flagged(np.abs(got - ref), _pair_name(kp), again)


@check(1e-2)
def _check_sklyanin_kappa2_zero(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for z in cfg.z_values:
        for k1 in (-1.0, 0.0, 1.0):
            kp0 = KappaPair(k1, 0.0)
            x = sample_group_stack(rng, kp0, 0.4, cfg.sample_count)
            got, again = _staged(lambda x, steps: _sklyanin_closed(kp0, z, x, steps)[..., _UPPER[0], _UPPER[1]], x)
            yield from _flagged(np.abs(got), lambda i: f"vanish k1={k1:g}", again)
            # shrinking the second label scales every bracket linearly
            x1 = sample_group_stack(rng, kp0, 0.3, 1)[0]
            slopes = [_sklyanin_closed(KappaPair(k1, k2), z, x1, ktrig)[_UPPER] / k2 for k2 in (1e-4, 1e-6)]
            slope = float(np.abs(slopes[0] - slopes[1]).max()) / max(1.0, abs(z))
            yield np.array([slope]), lambda i: f"slope k1={k1:g}"


@check(1e-6)
def _check_sklyanin_phs(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    h = 1e-6
    first, second = DeformationKind.FIRST_KIND, DeformationKind.SECOND_KIND
    for kp in cfg.kappa_grid:
        for z in cfg.z_values:
            x = sample_parallel1_stack(rng, kp, 0.35, cfg.sample_count)

            def first_gap(x, steps):
                return _phs_bracket(kp, z, first, *x.T, steps) - z * kp.k2 * steps.tk(kp.k12, x[..., 1])

            def second_gap(x, steps):
                return _phs_bracket(kp, z, second, *x.T, steps) - z * steps.sk(kp.k1, x[..., 0])

            # a point where the first-kind bracket is undefined, at a pole or
            # where phs_points_bracket raises ChartDomainError, is skipped
            d1, undefined = _staged(first_gap, x, skips=(ChartDomainError, PoleError))
            d2, again = _staged(second_gap, x, entry=1)
            yield from _flagged(
                np.abs(np.stack([d1, d2], axis=1)),
                lambda i: f"{('first', 'second')[i % 2]} {_kp_tag(kp)}",
                undefined,
                undefined._replace(entry=1),
                again,
            )
            plus = phs_points_bracket(kp, z, first, 0.2, h)
            minus = phs_points_bracket(kp, z, first, 0.2, -h)
            yield np.array([abs((plus - minus) / (2.0 * h) - z * kp.k2)]), lambda i: f"slope {_kp_tag(kp)}"


# --- quantum suite -----------------------------------------------------------


def _quantum_block(kp: KappaPair, z_values: tuple, defects: np.ndarray, bad: np.ndarray, again: Callable) -> Block:
    """The block of a label pair's z-stack defects; a flagged z is evaluated
    again with again, and a GeometryError there is an inf defect."""
    defects, errors = defects.copy(), {}
    for i in np.flatnonzero(bad).tolist():
        try:
            defects[i] = again(kp, z_values[i])
        except GeometryError as exc:
            defects[i], errors[i] = math.inf, f": {exc}"
    return defects, lambda i: f"z={z_values[i]:g} {_kp_tag(kp)}{errors.get(i, '')}"


@check(1e-9)
def _check_quantum_relations(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    z_values = np.array(cfg.z_values)
    for kp in cfg.kappa_grid:
        relation, bad = _relation_stack(kp, z_values, *_image_stack(kp, z_values))
        yield _quantum_block(kp, cfg.z_values, relation, bad, deformed_relation_defect)


@check(1e-10)
def _check_quantum_coassociativity(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    z_values = np.array(cfg.z_values)
    for kp in cfg.kappa_grid:
        parts, bad = _image_stack(kp, z_values)
        yield _quantum_block(kp, cfg.z_values, _coassociativity_defect(*parts), bad, coassociativity_defect)


@check(10.0)
def _check_quantum_classical_limit(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    # the dressed coproduct approaches the primitive one linearly in z
    zt = 1e-6
    for kp in cfg.kappa_grid:
        images = _coproduct_images(kp, zt, ktrig)[2]
        defects = [np.abs(dz - coproduct_classical(kp, gen)).max() for gen, dz in zip(GENERATOR_NAMES, images)]
        defects = np.array(defects) / zt
        yield defects, lambda i: f"{GENERATOR_NAMES[i]} {_kp_tag(kp)}"


@check(10.0)
def _check_quantum_first_order(cfg: SweepConfig, rng: np.random.Generator) -> Blocks:
    for kp in cfg.kappa_grid:
        for z in (1e-3, 1e-4):
            try:
                cm = first_order_delta(kp, z)
            except GeometryError as exc:
                yield np.array([math.inf]), lambda i, exc=exc: f"z={z:g} {_kp_tag(kp)}: {exc}"
                continue
            defects = np.abs(cm - _first_kind_images(kp, z)).max(axis=-1) / (z * z)
            yield defects, lambda i: f"{GENERATOR_NAMES[i]} z={z:g} {_kp_tag(kp)}"


# --- registry and runner -----------------------------------------------------

CHECK_NAMES = tuple(name for _, name, _ in _REGISTRY)
SUITE_NAMES = tuple(dict.fromkeys(suite for suite, _, _ in _REGISTRY))


def _reduce(suite: str, name: str, blocks: Blocks) -> CheckResult:
    """Fold a check's blocks into its result, by the rules the module
    docstring states."""
    worst, where, samples = 0.0, "", 0
    try:
        # the check's body runs as the loop draws its blocks
        with ktrig.quiet():
            for defects, at in blocks:
                defect, i = worst_defect(defects)
                samples += np.size(defects)
                if defect > worst:
                    worst, where = defect, at(i)
    except GeometryError as exc:
        worst, where = math.inf, f"{type(exc).__name__}: {exc}"
    return _judged(suite, name, worst, where, samples)


def _judged(suite: str, name: str, worst: float, where: str, samples: int) -> CheckResult:
    tol = DEFAULT_TOLERANCES[name]
    return CheckResult(suite, name, worst, tol, bool(worst <= tol), samples, where)


# check name -> (key, (worst, detail, samples)): the fold of the check's last
# run that drew nothing from its stream, and the key of its configuration
_SEED_FREE: dict[str, tuple[str, tuple[float, str, int]]] = {}


def _run(cfg: SweepConfig, selected: Callable[[str, str], bool]) -> list[CheckResult]:
    # check i of the registry draws from its own stream [seed, i], so a
    # result does not depend on which other checks run with it
    cfg = cfg.validated()
    # repr spells every label and z exactly, -0.0 apart from 0.0
    key = repr((cfg.kappa_grid, cfg.z_values, cfg.sample_count))
    results = []
    for idx, (suite, name, fn) in enumerate(_REGISTRY):
        if not selected(suite, name):
            continue
        kept = _SEED_FREE.get(name)
        if kept is not None and kept[0] == key:
            results.append(_judged(suite, name, *kept[1]))
            continue
        rng = np.random.default_rng([cfg.seed, idx])
        state = rng.bit_generator.state
        result = _reduce(suite, name, fn(cfg, rng))
        if rng.bit_generator.state == state:
            _SEED_FREE[name] = key, (result.max_defect, result.detail, result.samples)
        results.append(result)
    return results


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
