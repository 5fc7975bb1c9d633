"""Matrix realization of the motion groups.

The fundamental representation acts on ambient 3-space and preserves the
diagonal quadratic form diag(1, k1, k1*k2).  One-parameter subgroups have
closed forms in the curvature-labelled cosine/sine; a truncated power
series with scaling and squaring serves as the independent route for
cross-checking them.  Group elements are coordinatized by the ordered
product g = exp(a1 P1) exp(a2 P2) exp(xi R) whose inversion is exact on
the principal domains.

Finiteness is checked once, where a GroupElement is built: every public
function that returns one validates its 3x3 matrix in __post_init__, which
rejects a non-finite matrix with ValueError.  The product of two finite
elements that overflows is a ChartDomainError instead.

The stack forms _exp_stack, _group_stack, _coords_stack, _act_stack and
_ambient_defect_stack evaluate a map at N points at once, over (N, 3, 3)
stacks of raw arrays and (N, 3) arrays of points.  They raise nothing:
each returns its values and its row errors (see errors).  coords_from_group
and act are one-row stack calls.  Three scalar forms stay, equal to their
stack forms bit for bit and error for error: exp_one_param and
group_from_coords share _one_param with theirs and build GroupElements
through the checked product, and ambient_defect, at 5.9 us against 10.8 us
for a one-row call, would add 21 ms to a 0.28 s sweep over its 4,500
calls.  expm_series takes one matrix or a stack of them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import ktrig
from .algebra import GENERATOR_NAMES, AlgebraElement, KappaPair
from .errors import ChartDomainError, ConvergenceError, OffSurfaceError, RowErrors, first_errors, row_errors

SERIES_MAX_TERMS = 30
SERIES_SCALE_THRESHOLD = 0.5
SERIES_RESIDUAL_TOL = 1e-14
DEFAULT_CHART_TOL = 1e-9
DEFAULT_SURFACE_TOL = 1e-8


def metric_matrix(kp: KappaPair) -> np.ndarray:
    """Invariant bilinear form diag(1, k1, k1*k2) on ambient space."""
    return np.diag([1.0, kp.k1, kp.k12])


def rep_basis(kp: KappaPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Images of (J01, J02, J12) in the fundamental representation."""
    k1, k2 = kp.k1, kp.k2
    j01 = np.array([[0.0, -k1, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    j02 = np.array([[0.0, 0.0, -k1 * k2], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    j12 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -k2], [0.0, 1.0, 0.0]])
    return j01, j02, j12


def rep(kp: KappaPair, x: AlgebraElement) -> np.ndarray:
    """Representation matrix of a general algebra element."""
    j01, j02, j12 = rep_basis(kp)
    return x.c01 * j01 + x.c02 * j02 + x.c12 * j12


@dataclass(frozen=True)
class GroupCoordinates:
    """Ordered-product coordinates (a1, a2, xi)."""

    a1: float
    a2: float
    xi: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.xi], dtype=float)


@dataclass(frozen=True)
class GroupElement:
    """A 3x3 matrix in the motion group of the labels kp."""

    m: np.ndarray
    kp: KappaPair

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3) or not np.all(np.isfinite(m)):
            raise ValueError("group element must be a finite 3x3 matrix")
        object.__setattr__(self, "m", m)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if other.kp != self.kp:
            raise ValueError("cannot compose elements over different curvature labels")
        # an overflowing product is caught below, as a non-finite matrix
        with np.errstate(over="ignore", invalid="ignore"):
            m = self.m @ other.m
        if not np.isfinite(m).all():
            raise ChartDomainError(_PRODUCT_OVERFLOW)
        return GroupElement(m, self.kp)


_PRODUCT_OVERFLOW = "two finite group elements overflow the group product"


def _one_param(kp: KappaPair, generator: str, t, ck, sk) -> np.ndarray:
    """Raw exp(t * rho(generator)) from the labelled cosine ck and sine sk:
    one 3x3 array for a scalar t, an (N, 3, 3) stack for an (N,) array t."""
    if generator == "J01":
        i, j, kappa = 0, 1, kp.k1
    elif generator == "J02":
        i, j, kappa = 0, 2, kp.k12
    elif generator == "J12":
        i, j, kappa = 1, 2, kp.k2
    else:
        raise ValueError(f"unknown generator {generator!r}, expected one of {GENERATOR_NAMES}")
    c, s = ck(kappa, t), sk(kappa, t)
    m = np.zeros(np.shape(t) + (3, 3))
    m[..., i, i] = c
    m[..., j, j] = c
    m[..., j, i] = s
    m[..., i, j] = -kappa * s
    m[..., 3 - i - j, 3 - i - j] = 1.0
    return m


def _exp_stack(kp: KappaPair, generator: str, t: np.ndarray) -> tuple[np.ndarray, RowErrors]:
    """exp_one_param at each element of the (N,) array t, as an (N, 3, 3)
    stack of raw arrays, and its row errors."""
    t = np.asarray(t, dtype=float)
    log: list[RowErrors] = []
    with np.errstate(over="ignore", invalid="ignore"):  # an entry -kappa * s may overflow
        m = _one_param(kp, generator, t, *ktrig.logged_arrays(log, t.shape))
    return m, first_errors(*log)


def _group_stack(kp: KappaPair, x: np.ndarray) -> tuple[np.ndarray, RowErrors]:
    """group_from_coords at each row (a1, a2, xi) of the (N, 3) array x, as
    an (N, 3, 3) stack of raw arrays, and its row errors."""
    (g1, e1), (g2, e2), (g3, e3) = (_exp_stack(kp, name, x[:, k]) for k, name in enumerate(GENERATOR_NAMES))
    with np.errstate(over="ignore", invalid="ignore"):
        g = g1 @ g2 @ g3
    overflow = row_errors(~np.isfinite(g).all(axis=(1, 2)), lambda i: ChartDomainError(_PRODUCT_OVERFLOW))
    return g, first_errors(e1, e2, e3, overflow)


def exp_one_param(kp: KappaPair, generator: str, t: float) -> GroupElement:
    """Closed-form exponential exp(t * rho(generator)); a ck or sk overflow
    raises ChartDomainError."""
    return GroupElement(_one_param(kp, generator, t, ktrig.ck, ktrig.sk), kp)


def expm_series(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by truncated power series with scaling and squaring.

    Independent of the closed forms above on purpose: this is the oracle
    route.  a is one square matrix or a stack of them.  Each matrix of a
    stack gets its own scaling, term count and squarings, so its result
    equals expm_series of that matrix alone bit for bit.  Raises
    ConvergenceError if the final series term is still above the residual
    tolerance after the term cap, and where the input, the scaling
    2**squarings or the result is not finite; in a stack, for the first
    matrix that fails the earliest of these tests.
    """
    a = np.asarray(a, dtype=float)
    norm = np.max(np.abs(a), axis=(-2, -1), initial=0.0)
    bad = ~np.isfinite(norm)
    if np.count_nonzero(bad):
        raise ConvergenceError(f"series exponential of a matrix with entry {float(norm[bad][0])!r}")
    # the number of halvings that bring the norm to SERIES_SCALE_THRESHOLD or
    # below: with norm / (2 SERIES_SCALE_THRESHOLD) = mant * 2**e and
    # 0.5 <= mant < 1, that is e, plus one where mant > 0.5
    mant, e = np.frexp(norm / (2.0 * SERIES_SCALE_THRESHOLD))
    squarings = np.maximum(e + (mant > 0.5), 0)
    bad = squarings >= sys.float_info.max_exp
    if np.count_nonzero(bad):
        raise ConvergenceError(f"series exponential: the scaling 2**{int(squarings[bad][0])} overflows")
    b = a / np.ldexp(1.0, squarings)[..., None, None]
    result = term = np.eye(a.shape[-1])
    # each matrix keeps the sum and term norm of the term that stopped it:
    # the first below 1e-17, or the last
    final = np.empty(a.shape)
    final_norm = np.empty(norm.shape)
    running = np.ones(norm.shape, dtype=bool)
    for n in range(1, SERIES_MAX_TERMS + 1):
        term = term @ b / n
        result = result + term
        term_norm = np.abs(term).max(axis=(-2, -1))
        stop = running & (term_norm < 1e-17) if n < SERIES_MAX_TERMS else running
        if np.count_nonzero(stop):
            np.copyto(final, result, where=stop[..., None, None])
            np.copyto(final_norm, term_norm, where=stop)
            running &= ~stop
            if not np.count_nonzero(running):
                break
    bad = final_norm > SERIES_RESIDUAL_TOL
    if np.count_nonzero(bad):
        raise ConvergenceError(
            f"series exponential: residual {float(final_norm[bad][0]):.3e} after {SERIES_MAX_TERMS} terms"
        )
    # an overflowing square is caught below, as a non-finite result
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(int(squarings.max(initial=0))):
            np.copyto(final, final @ final, where=(squarings > k)[..., None, None])
    if not np.isfinite(final).all():
        bad = ~np.isfinite(final).all(axis=(-2, -1))
        raise ConvergenceError(f"series exponential: {int(squarings[bad][0])} squarings overflow")
    return final


def group_from_coords(kp: KappaPair, gc: GroupCoordinates) -> GroupElement:
    """Ordered product exp(a1 rho J01) exp(a2 rho J02) exp(xi rho J12)."""
    g1 = exp_one_param(kp, "J01", gc.a1)
    g2 = exp_one_param(kp, "J02", gc.a2)
    g3 = exp_one_param(kp, "J12", gc.xi)
    return g1 @ g2 @ g3


def coords_from_group(kp: KappaPair, g: GroupElement) -> GroupCoordinates:
    """Invert the ordered-product coordinates.

    The first column of g is the image of the base point (1, 0, 0), from
    which a2 and a1 are read off; xi comes from what remains after peeling
    the two translations.  Out-of-domain elements (the cosine factor of a2
    vanishing, so the translation part is not invertible) raise
    ChartDomainError; no wrapping is attempted.  So does an element whose
    coordinates overflow on the way.
    """
    x, errors = _coords_stack(kp, g.m[None])
    if errors:
        raise errors[0]
    return GroupCoordinates(*x[0].tolist())


def _coords_stack(kp: KappaPair, m: np.ndarray) -> tuple[np.ndarray, RowErrors]:
    """coords_from_group at each matrix of the (N, 3, 3) stack m, as the
    (N, 3) coordinates (a1, a2, xi), and its row errors."""
    x, errors = _coords_read(kp, m)

    def not_finite(i: int) -> ChartDomainError:
        gc = GroupCoordinates(*x[i].tolist())
        return ChartDomainError(f"coords_from_group: the coordinates {gc} of a finite element are not finite")

    return x, first_errors(errors, row_errors(~np.isfinite(x).all(axis=1), not_finite))


def _coords_read(kp: KappaPair, m: np.ndarray) -> tuple[np.ndarray, RowErrors]:
    """_coords_stack without its check that the coordinates are finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s0, s1, s2 = m[:, 0, 0], m[:, 1, 0], m[:, 2, 0]
        c2 = np.sqrt(np.maximum(s0 * s0 + kp.k1 * s1 * s1, 0.0))
        a2, e2 = ktrig.kinv_array(kp.k12, s2, c2)
        a1, e1 = ktrig.kinv_array(kp.k1, s1 / c2, s0 / c2)
        (h2, f2), (h1, f1) = _exp_stack(kp, "J02", -a2), _exp_stack(kp, "J01", -a1)
        h = h2 @ h1 @ m
        xi, e3 = ktrig.kinv_array(kp.k2, h[:, 2, 1], h[:, 1, 1])

    def vanishing(i: int) -> ChartDomainError:
        return ChartDomainError(f"coords_from_group: cosine factor {c2[i]:.3e} of a2 below tolerance {DEFAULT_CHART_TOL!r}")

    vanishes = row_errors(c2 < DEFAULT_CHART_TOL, vanishing)
    return np.stack([a1, a2, xi], axis=1), first_errors(vanishes, e2, e1, f2, f1, e3)


def ambient_defect(kp: KappaPair, point) -> float:
    """Deviation of a length-3 point from the quadric s . I_k s = 1; inf
    where the quadratic form overflows."""
    s = np.asarray(point, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        q = float(s @ metric_matrix(kp) @ s)
    return abs(q - 1.0) if math.isfinite(q) else math.inf


def _ambient_defect_stack(kp: KappaPair, s: np.ndarray) -> np.ndarray:
    """ambient_defect at each row of the (N, 3) array s."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = (s[:, None, :] @ metric_matrix(kp) @ s[:, :, None])[:, 0, 0]
        return np.where(np.isfinite(q), np.abs(q - 1.0), math.inf)


def act(kp: KappaPair, g: GroupElement, point) -> np.ndarray:
    """Apply a group element to an ambient triple on the quadric."""
    images, errors = _act_stack(kp, g.m[None], np.asarray(point, dtype=float)[None])
    if errors:
        raise errors[0]
    return images[0]


def _act_stack(kp: KappaPair, g: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, RowErrors]:
    """act of each matrix of the (N, 3, 3) stack g on the matching row of the
    (N, 3) array s, as the (N, 3) images, and its row errors."""
    defect = _ambient_defect_stack(kp, s)
    with np.errstate(over="ignore", invalid="ignore"):
        image = (g @ s[:, :, None])[:, :, 0]

    def off_surface(i: int) -> OffSurfaceError:
        return OffSurfaceError(f"act: point {s[i].tolist()} misses the quadric by {defect[i]:.3e}")

    def overflow(i: int) -> ChartDomainError:
        return ChartDomainError(f"act: the image of the point {s[i].tolist()} overflows")

    finite = np.isfinite(image).all(axis=1)
    return image, first_errors(row_errors(defect > DEFAULT_SURFACE_TOL, off_surface), row_errors(~finite, overflow))
