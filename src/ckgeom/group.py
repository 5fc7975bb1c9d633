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
rejects a non-finite matrix with ValueError.  A one-parameter factor or a
product of finite elements that overflows is a ChartDomainError instead.

_one_param, _product, _group, _coords, _act, _ambient_defect_stack and
_series are written once, over the steps of ktrig (see there): the group
product, group_from_coords, coords_from_group and expm_series are their
raising calls.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import ktrig
from .algebra import GENERATOR_NAMES, AlgebraElement, KappaPair
from .errors import ChartDomainError, ConvergenceError, OffSurfaceError

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


def rep(kp: KappaPair, x: AlgebraElement | np.ndarray) -> np.ndarray:
    """Representation matrix of an algebra element, or the stack of those
    of the elements with the coefficient rows x, (..., 3)."""
    c = (x.as_array() if isinstance(x, AlgebraElement) else np.asarray(x))[..., None, None]
    basis = np.array(rep_basis(kp))
    # an exact-zero coefficient adds nothing, also where k1 * k2 overflows to
    # an infinite entry of the J02 image
    terms = np.multiply(c, basis, out=np.zeros(np.broadcast_shapes(c.shape, basis.shape)), where=c != 0.0)
    return terms.sum(axis=-3)


@dataclass(frozen=True)
class GroupCoordinates:
    """Ordered-product coordinates (a1, a2, xi)."""

    a1: float
    a2: float
    xi: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.xi], dtype=float)


# Kept public: perfbench/tests/test_tracer.py traces its validation and product.
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
        with ktrig.quiet():
            return GroupElement(_product(self.m, other.m, ktrig), self.kp)


def _product(a: np.ndarray, b: np.ndarray, steps) -> np.ndarray:
    """The product a @ b of raw matrices or stacks of them, through steps
    (see ktrig): an overflowing product fails."""
    m = a @ b
    if steps.fails(~np.isfinite(m).all(axis=(-2, -1))):
        raise ChartDomainError("two finite group elements overflow the group product")
    return m


def _one_param(kp: KappaPair, generator: str, t, steps) -> np.ndarray:
    """Raw exp(t * rho(generator)) through steps (see ktrig): one 3x3 array
    for a scalar t, an (N, 3, 3) stack for an (N,) array t."""
    if generator == "J01":
        i, j, kappa = 0, 1, kp.k1
    elif generator == "J02":
        i, j, kappa = 0, 2, kp.k12
    elif generator == "J12":
        i, j, kappa = 1, 2, kp.k2
    else:
        raise ValueError(f"unknown generator {generator!r}, expected one of {GENERATOR_NAMES}")
    c, s = steps.ck(kappa, t), steps.sk(kappa, t)
    # -kappa * s can overflow where sk does not, when |kappa| > 1
    ks = -kappa * s
    if steps.fails(abs(ks) == math.inf):
        raise ChartDomainError(f"{-kappa!r} * sk({kappa!r}, {float(t)!r}) overflows a double")
    m = np.zeros(np.shape(t) + (3, 3))
    m[..., i, i] = c
    m[..., j, j] = c
    m[..., j, i] = s
    m[..., i, j] = ks
    m[..., 3 - i - j, 3 - i - j] = 1.0
    return m


def _group(kp: KappaPair, x: np.ndarray, steps) -> np.ndarray:
    """The ordered product of group_from_coords at the points x, (..., 3),
    as raw (..., 3, 3) arrays, through steps (see ktrig)."""
    g1, g2, g3 = (_one_param(kp, name, x[..., k], steps) for k, name in enumerate(GENERATOR_NAMES))
    return _product(_product(g1, g2, steps), g3, steps)


# Kept public: the README names it as the oracle of the closed exponentials.
@ktrig.quiet()
def expm_series(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by truncated power series with scaling and squaring.

    Independent of the closed forms above on purpose: this is the oracle
    route.  a is one square matrix or a stack of them.  Each matrix of a
    stack gets its own scaling, term count and squarings, so its result
    equals expm_series of that matrix alone bit for bit.  Raises
    ConvergenceError where the input or the scaling 2**squarings is not
    finite, where the final series term is still above the residual
    tolerance after the term cap, and where the result is not finite; in a
    stack, for the first matrix that fails.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 2:
        return _series(a, ktrig)
    flag = ktrig._Flag(a.shape[:-2])
    result = _series(a, flag)
    if np.count_nonzero(flag.bad):
        _series(a[flag.bad][0], ktrig)
    return result


def _series(a: np.ndarray, steps) -> np.ndarray:
    """The series exponential of the matrices a, (..., n, n), through steps
    (see ktrig)."""
    norm = np.max(np.abs(a), axis=(-2, -1), initial=0.0)
    if steps.fails(~np.isfinite(norm)):
        raise ConvergenceError(f"series exponential of a matrix with entry {float(norm)!r}")
    # the number of halvings that bring the norm to SERIES_SCALE_THRESHOLD
    # or below: with norm / (2 SERIES_SCALE_THRESHOLD) = mant * 2**e and
    # 0.5 <= mant < 1, that is e, plus one where mant > 0.5
    mant, e = np.frexp(norm / (2.0 * SERIES_SCALE_THRESHOLD))
    squarings = np.maximum(e + (mant > 0.5), 0)
    overflow = squarings >= sys.float_info.max_exp
    if steps.fails(overflow):
        raise ConvergenceError(f"series exponential: the scaling 2**{int(squarings)} overflows")
    squarings = np.where(overflow, 0, squarings)  # a flagged matrix is not squared
    b = a / np.ldexp(1.0, squarings)[..., None, None]
    result = term = np.eye(a.shape[-1])
    # each matrix keeps the sum and term norm of the term that stopped
    # it: the first below 1e-17, or the last
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
    if steps.fails(final_norm > SERIES_RESIDUAL_TOL):
        raise ConvergenceError(
            f"series exponential: residual {float(final_norm):.3e} after {SERIES_MAX_TERMS} terms"
        )
    for k in range(int(squarings.max(initial=0))):
        np.copyto(final, final @ final, where=(squarings > k)[..., None, None])
    if steps.fails(~np.isfinite(final).all(axis=(-2, -1))):
        raise ConvergenceError(f"series exponential: {int(squarings)} squarings overflow")
    return final


# Kept public: perfbench/tests/test_tracer.py traces a call of it.
def group_from_coords(kp: KappaPair, gc: GroupCoordinates) -> GroupElement:
    """Ordered product exp(a1 rho J01) exp(a2 rho J02) exp(xi rho J12)."""
    factors = zip(GENERATOR_NAMES, (gc.a1, gc.a2, gc.xi))
    g1, g2, g3 = (GroupElement(_one_param(kp, name, t, ktrig), kp) for name, t in factors)
    return g1 @ g2 @ g3


# Kept public: perfbench/tests/test_tracer.py traces its rebinding in poisson.
@ktrig.quiet()
def coords_from_group(kp: KappaPair, g: GroupElement) -> GroupCoordinates:
    """Invert the ordered-product coordinates.

    The first column of g is the image of the base point (1, 0, 0), from
    which a2 and a1 are read off; xi comes from what remains after peeling
    the two translations.  Out-of-domain elements (the cosine factor of a2
    vanishing, so the translation part is not invertible) raise
    ChartDomainError; no wrapping is attempted.  So does an element whose
    coordinates overflow on the way.
    """
    return GroupCoordinates(*_coords(kp, g.m, ktrig).tolist())


def _coords(kp: KappaPair, m: np.ndarray, steps, finite: bool = True) -> np.ndarray:
    """The coordinates (a1, a2, xi) of the matrices m, (..., 3, 3) -> (..., 3),
    through steps (see ktrig); finite=False leaves out the last step, the
    check that they are finite."""
    s0, s1, s2 = m[..., 0, 0], m[..., 1, 0], m[..., 2, 0]
    c2 = np.sqrt(np.maximum(s0 * s0 + kp.k1 * s1 * s1, 0.0))
    if steps.fails(c2 < DEFAULT_CHART_TOL):
        raise ChartDomainError(
            f"coords_from_group: cosine factor {c2:.3e} of a2 below tolerance {DEFAULT_CHART_TOL!r}"
        )
    a2 = steps.kinv(kp.k12, s2, c2)
    a1 = steps.kinv(kp.k1, s1 / c2, s0 / c2)
    h = _one_param(kp, "J02", -a2, steps) @ _one_param(kp, "J01", -a1, steps) @ m
    xi = steps.kinv(kp.k2, h[..., 2, 1], h[..., 1, 1])
    x = np.stack([a1, a2, xi], axis=-1)
    if finite and steps.fails(~np.isfinite(x).all(axis=-1)):
        gc = GroupCoordinates(*x.tolist())
        raise ChartDomainError(f"coords_from_group: the coordinates {gc} of a finite element are not finite")
    return x


def _ambient_defect_stack(kp: KappaPair, s: np.ndarray) -> np.ndarray:
    """Deviation of each row of the array s, (..., 3), from the quadric
    s . I_k s = 1; inf where the quadratic form overflows."""
    q = (s[..., None, :] @ metric_matrix(kp) @ s[..., :, None])[..., 0, 0]
    return np.where(np.isfinite(q), np.abs(q - 1.0), math.inf)


def _act(kp: KappaPair, g: np.ndarray, s: np.ndarray, steps) -> np.ndarray:
    """The images g s of the points s, (..., 3), under the matrices g,
    (..., 3, 3), through steps (see ktrig)."""
    defect = _ambient_defect_stack(kp, s)
    if steps.fails(defect > DEFAULT_SURFACE_TOL):
        raise OffSurfaceError(f"act: point {s.tolist()} misses the quadric by {float(defect):.3e}")
    image = (g @ s[..., None])[..., 0]
    if steps.fails(~np.isfinite(image).all(axis=-1)):
        raise ChartDomainError(f"act: the image of the point {s.tolist()} overflows")
    return image
