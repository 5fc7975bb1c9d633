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
elements that overflows is a ChartDomainError instead.  The
private helpers _exp_matrix and _coords_from_matrix work on raw arrays and
check no finiteness, so inner loops that compose many matrices (the numeric
invariant fields in poisson) validate their starting point themselves and
skip the per-product check.

The stack forms _exp_stack, _group_stack, _coords_stack and
_ambient_defect_stack evaluate the same maps at N points at once, over
(N, 3, 3) stacks of raw arrays or (N, 3) arrays of points.  They
raise nothing: an overflowing element is not finite, and _coords_stack
returns a mask of the matrices where _coords_from_matrix returns finite
coordinates.  Wherever the scalar form returns, the stack form equals it
bit for bit, so a caller can evaluate a batch, call the scalar form only at
the points the batch flags, and get the scalar form's result or exception
there.  expm_series takes one matrix or a stack of them.
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
            raise ChartDomainError("the product of two finite group elements overflows")
        return GroupElement(m, self.kp)


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


def _exp_matrix(kp: KappaPair, generator: str, t: float) -> np.ndarray:
    """Raw 3x3 array of exp(t * rho(generator)); a ck or sk overflow raises
    ChartDomainError."""
    return _one_param(kp, generator, t, ktrig.ck, ktrig.sk)


def _exp_stack(kp: KappaPair, generator: str, t: np.ndarray) -> np.ndarray:
    """_exp_matrix at each element of the (N,) array t, as an (N, 3, 3)
    stack; where _exp_matrix raises, the matrix has an infinite entry."""
    return _one_param(kp, generator, np.asarray(t, dtype=float), ktrig.ck_array, ktrig.sk_array)


def _group_stack(kp: KappaPair, x: np.ndarray) -> np.ndarray:
    """group_from_coords at each row (a1, a2, xi) of the (N, 3) array x, as
    an (N, 3, 3) stack of raw arrays; where group_from_coords raises, the
    matrix is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _exp_stack(kp, "J01", x[:, 0]) @ _exp_stack(kp, "J02", x[:, 1]) @ _exp_stack(kp, "J12", x[:, 2])


def exp_one_param(kp: KappaPair, generator: str, t: float) -> GroupElement:
    """Closed-form exponential exp(t * rho(generator))."""
    return GroupElement(_exp_matrix(kp, generator, t), kp)


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
    gc = _coords_from_matrix(kp, g.m)
    if not np.isfinite(gc.as_array()).all():
        raise ChartDomainError(f"coords_from_group: the coordinates {gc} of a finite element are not finite")
    return gc


def _coords_from_matrix(kp: KappaPair, m: np.ndarray) -> GroupCoordinates:
    """coords_from_group on a raw 3x3 array, without its check that the
    coordinates are finite."""
    # Python floats, which overflow without a numpy warning
    s0, s1, s2 = m[:, 0].tolist()
    c2_sq = s0 * s0 + kp.k1 * s1 * s1
    c2 = math.sqrt(max(c2_sq, 0.0))
    if c2 < DEFAULT_CHART_TOL:
        raise ChartDomainError(
            f"coords_from_group: cosine factor {c2:.3e} of a2 below tolerance {DEFAULT_CHART_TOL!r}"
        )
    a2 = ktrig.kinv(kp.k12, s2, c2)
    a1 = ktrig.kinv(kp.k1, s1 / c2, s0 / c2)
    with np.errstate(over="ignore", invalid="ignore"):
        h = _exp_matrix(kp, "J02", -a2) @ _exp_matrix(kp, "J01", -a1) @ m
    xi = ktrig.kinv(kp.k2, float(h[2, 1]), float(h[1, 1]))
    return GroupCoordinates(a1, a2, xi)


def _coords_stack(kp: KappaPair, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_coords_from_matrix at each matrix of the (N, 3, 3) stack m: the (N, 3)
    coordinates (a1, a2, xi), and the mask of the matrices where
    _coords_from_matrix returns finite coordinates."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s0, s1, s2 = m[:, 0, 0], m[:, 1, 0], m[:, 2, 0]
        c2_sq = s0 * s0 + kp.k1 * s1 * s1
        c2 = np.sqrt(np.maximum(c2_sq, 0.0))
        a2, ok2 = ktrig.kinv_array(kp.k12, s2, c2)
        a1, ok1 = ktrig.kinv_array(kp.k1, s1 / c2, s0 / c2)
        h = _exp_stack(kp, "J02", -a2) @ _exp_stack(kp, "J01", -a1) @ m
        xi, ok3 = ktrig.kinv_array(kp.k2, h[:, 2, 1], h[:, 1, 1])
    x = np.stack([a1, a2, xi], axis=1)
    ok = (c2 >= DEFAULT_CHART_TOL) & ok1 & ok2 & ok3 & np.isfinite(h).all(axis=(1, 2)) & np.isfinite(x).all(axis=1)
    return x, ok


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
    s = np.asarray(point, dtype=float)
    defect = ambient_defect(kp, s)
    if defect > DEFAULT_SURFACE_TOL:
        raise OffSurfaceError(
            f"act: point {s.tolist()} misses the quadric by {defect:.3e}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        image = g.m @ s
    if not np.isfinite(image).all():
        raise ChartDomainError(f"act: the image of the point {s.tolist()} overflows")
    return image
