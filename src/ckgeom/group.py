"""Matrix realization of the motion groups.

The fundamental representation acts on ambient 3-space and preserves the
diagonal quadratic form diag(1, k1, k1*k2).  One-parameter subgroups have
closed forms in the curvature-labelled cosine/sine; a truncated power
series with scaling and squaring serves as the independent route for
cross-checking them.  Group elements are coordinatized by the ordered
product g = exp(a1 P1) exp(a2 P2) exp(xi R) whose inversion is exact on
the principal domains.

Finiteness is checked once, where a GroupElement is built: every public
function that returns one validates its 3x3 matrix in __post_init__.  The
private helpers _exp_matrix and _coords_from_matrix work on raw arrays and
check nothing, so inner loops that compose many matrices (the numeric
invariant fields in poisson) validate their starting point themselves and
skip the per-product check.
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
        return GroupElement(self.m @ other.m, self.kp)


def _exp_matrix(kp: KappaPair, generator: str, t: float) -> np.ndarray:
    """Raw 3x3 array of exp(t * rho(generator)), not checked for finiteness."""
    if generator == "J01":
        c, s = ktrig.ck(kp.k1, t), ktrig.sk(kp.k1, t)
        return np.array([[c, -kp.k1 * s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    if generator == "J02":
        c, s = ktrig.ck(kp.k12, t), ktrig.sk(kp.k12, t)
        return np.array([[c, 0.0, -kp.k12 * s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    if generator == "J12":
        c, s = ktrig.ck(kp.k2, t), ktrig.sk(kp.k2, t)
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -kp.k2 * s], [0.0, s, c]])
    raise ValueError(f"unknown generator {generator!r}, expected one of {GENERATOR_NAMES}")


def exp_one_param(kp: KappaPair, generator: str, t: float) -> GroupElement:
    """Closed-form exponential exp(t * rho(generator))."""
    return GroupElement(_exp_matrix(kp, generator, t), kp)


def expm_series(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by truncated power series with scaling and squaring.

    Independent of the closed forms above on purpose: this is the oracle
    route.  Raises ConvergenceError if the final series term is still above
    the residual tolerance after the term cap, and where the input, the
    scaling 2**squarings or the result is not finite.
    """
    a = np.asarray(a, dtype=float)
    norm = float(np.max(np.abs(a))) if a.size else 0.0
    if not math.isfinite(norm):
        raise ConvergenceError(f"series exponential of a matrix with entry {norm!r}")
    squarings = 0
    while norm > SERIES_SCALE_THRESHOLD:
        norm *= 0.5
        squarings += 1
    if squarings >= sys.float_info.max_exp:
        raise ConvergenceError(f"series exponential: the scaling 2**{squarings} overflows")
    b = a / (2.0 ** squarings)
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    term_norm = math.inf
    for n in range(1, SERIES_MAX_TERMS + 1):
        term = term @ b / n
        result = result + term
        term_norm = float(np.max(np.abs(term)))
        if term_norm < 1e-17:
            break
    if term_norm > SERIES_RESIDUAL_TOL:
        raise ConvergenceError(
            f"series exponential: residual {term_norm:.3e} after {SERIES_MAX_TERMS} terms"
        )
    # an overflowing square is caught below, as a non-finite result
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            result = result @ result
    if not np.isfinite(result).all():
        raise ConvergenceError(f"series exponential: {squarings} squarings overflow")
    return result


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
    ChartDomainError; no wrapping is attempted.
    """
    return _coords_from_matrix(kp, g.m)


def _coords_from_matrix(kp: KappaPair, m: np.ndarray) -> GroupCoordinates:
    """coords_from_group on a raw 3x3 array the caller has already validated."""
    s = m[:, 0]
    c2_sq = s[0] * s[0] + kp.k1 * s[1] * s[1]
    c2 = math.sqrt(max(c2_sq, 0.0))
    if c2 < DEFAULT_CHART_TOL:
        raise ChartDomainError(
            f"coords_from_group: cosine factor {c2:.3e} of a2 below tolerance {DEFAULT_CHART_TOL!r}"
        )
    a2 = ktrig.kinv(kp.k12, float(s[2]), c2)
    a1 = ktrig.kinv(kp.k1, float(s[1]) / c2, float(s[0]) / c2)
    h = _exp_matrix(kp, "J02", -a2) @ _exp_matrix(kp, "J01", -a1) @ m
    xi = ktrig.kinv(kp.k2, float(h[2, 1]), float(h[1, 1]))
    return GroupCoordinates(a1, a2, xi)


def ambient_defect(kp: KappaPair, point) -> float:
    """Deviation of a length-3 point from the quadric s . I_k s = 1."""
    s = np.asarray(point, dtype=float)
    return abs(float(s @ metric_matrix(kp) @ s) - 1.0)


def act(kp: KappaPair, g: GroupElement, point) -> np.ndarray:
    """Apply a group element to an ambient triple on the quadric."""
    s = np.asarray(point, dtype=float)
    defect = ambient_defect(kp, s)
    if defect > DEFAULT_SURFACE_TOL:
        raise OffSurfaceError(
            f"act: point {s.tolist()} misses the quadric by {defect:.3e}"
        )
    return g.m @ s
