"""Poisson-Lie structures on the motion groups and their quotients.

Everything here is computed abstractly over structure constants in the
ordered basis (J01, J02, J12); the 3x3 representation never enters.  The
wedge convention is a ^ b = a (x) b - b (x) a.  Two coboundary families are
covered: the "first kind" classical r-matrix z J12 ^ J02 (deforming the
translation sector) and the "second kind" z J12 ^ J01.

The induced multiplicative Poisson bracket on the group is available in
two routes: closed forms in the labelled trigonometry, and the r-matrix
contraction of left/right invariant vector fields, the latter with an
oracle mode that rebuilds the fields by differentiating group translations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import ktrig
from .algebra import BASIS, GENERATOR_NAMES, AlgebraElement, KappaPair, structure_tensor
from .errors import ChartDomainError, PoleError
from .group import GroupCoordinates, _coords_from_matrix, _exp_matrix
# Kept bound here: perfbench/tests/test_tracer.py checks that the tracer
# rebinds names a module imported from another layer, using this one.
from .group import coords_from_group  # noqa: F401

_PAIRS = ((0, 1), (0, 2), (1, 2))
GROUP_COORD_NAMES = ("a1", "a2", "xi")
_COORD_INDEX = {name: i for i, name in enumerate(GROUP_COORD_NAMES)}
TRANSLATION_STEP = 1e-6


class DeformationKind(Enum):
    FIRST_KIND = "first"
    SECOND_KIND = "second"


class CoisotropyVerdict(Enum):
    POISSON_SUBGROUP = "poisson-subgroup"
    COISOTROPIC = "coisotropic"
    FAILS = "fails"


@dataclass(frozen=True)
class Bivector:
    """Element of Lambda^2 of the algebra over the ordered basis.

    Components are stored on the pairs (J01^J02, J01^J12, J02^J12).
    """

    j01_j02: float = 0.0
    j01_j12: float = 0.0
    j02_j12: float = 0.0

    def components(self) -> np.ndarray:
        return np.array([self.j01_j02, self.j01_j12, self.j02_j12])

    def component(self, i: int, j: int) -> float:
        """Coefficient of e_i ^ e_j for any index order (antisymmetric)."""
        if i == j:
            return 0.0
        sign = 1.0 if i < j else -1.0
        key = (min(i, j), max(i, j))
        return sign * self.components()[_PAIRS.index(key)]

    @classmethod
    def wedge(cls, i: int, j: int, coeff: float) -> "Bivector":
        """coeff * e_i ^ e_j."""
        if i == j:
            return cls()
        parts = [0.0, 0.0, 0.0]
        sign = 1.0 if i < j else -1.0
        parts[_PAIRS.index((min(i, j), max(i, j)))] = sign * coeff
        return cls(*parts)

    def as_tensor(self) -> np.ndarray:
        """3x3 antisymmetric coefficient array over e_i (x) e_j."""
        t = np.zeros((3, 3))
        for idx, (i, j) in enumerate(_PAIRS):
            c = self.components()[idx]
            t[i, j] += c
            t[j, i] -= c
        return t

    @classmethod
    def from_tensor(cls, t: np.ndarray, tol: float = 1e-12) -> "Bivector":
        t = np.asarray(t, dtype=float)
        skew = float(np.max(np.abs(t + t.T)))
        if skew > tol * max(1.0, float(np.max(np.abs(t)))):
            raise ValueError(f"tensor is not antisymmetric (defect {skew:.3e})")
        return cls(float(t[0, 1]), float(t[0, 2]), float(t[1, 2]))

    def __add__(self, other: "Bivector") -> "Bivector":
        return Bivector(*(self.components() + other.components()))

    def __sub__(self, other: "Bivector") -> "Bivector":
        return Bivector(*(self.components() - other.components()))

    def __mul__(self, scalar: float) -> "Bivector":
        return Bivector(*(scalar * self.components()))

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.components())))


@dataclass(frozen=True)
class Trivector:
    """Multiple of J01 ^ J02 ^ J12 (six-term alternating tensor convention)."""

    coefficient: float


@dataclass(frozen=True)
class CocommutatorMap:
    """Images of the basis under a cocommutator delta."""

    d_j01: Bivector
    d_j02: Bivector
    d_j12: Bivector

    def image(self, index: int) -> Bivector:
        return (self.d_j01, self.d_j02, self.d_j12)[index]


@dataclass(frozen=True)
class BialgebraReport:
    """Defects and dual structure produced by bialgebra_check."""

    cocycle_defect: float
    dual_jacobi_defect: float
    dual_structure: np.ndarray  # f[j, k, i]: [xi^j, xi^k] = sum_i f[j,k,i] xi^i

    def dual_bracket_coeffs(self, j: int, k: int) -> np.ndarray:
        return np.asarray(self.dual_structure)[j, k, :].copy()


def rmatrix(kind: DeformationKind, z: float) -> Bivector:
    """Classical r-matrix of the chosen family at deformation parameter z."""
    if kind is DeformationKind.FIRST_KIND:
        return Bivector.wedge(2, 1, z)  # z J12 ^ J02
    return Bivector.wedge(2, 0, z)  # z J12 ^ J01


def _ad_matrix(kp: KappaPair, x: AlgebraElement) -> np.ndarray:
    """ad[m, i] with [x, e_i] = sum_m ad[m, i] e_m."""
    c = structure_tensor(kp)
    return np.einsum("k,kim->mi", x.as_array(), c)


def cocommutator(kp: KappaPair, r: Bivector, x: AlgebraElement) -> Bivector:
    """Coboundary cocommutator delta(x) = [x (x) 1 + 1 (x) x, r]."""
    ad = _ad_matrix(kp, x)
    t = r.as_tensor()
    return Bivector.from_tensor(ad @ t + t @ ad.T)


def cocommutator_map(kp: KappaPair, r: Bivector) -> CocommutatorMap:
    return CocommutatorMap(*(cocommutator(kp, r, e) for e in BASIS))


def _act_on_bivector_tensor(kp: KappaPair, i: int, t: np.ndarray) -> np.ndarray:
    ad = _ad_matrix(kp, BASIS[i])
    return ad @ t + t @ ad.T


def bialgebra_check(kp: KappaPair, delta: CocommutatorMap) -> BialgebraReport:
    """Cocycle and dual-Jacobi defects of a candidate cocommutator.

    The cocycle condition compares delta([e_i, e_j]) against the adjoint
    action of each argument on the other image.  The dual structure tensor
    is read off the bivector components of the images and its Jacobi
    identity is evaluated directly.
    """
    c = structure_tensor(kp)
    images = [delta.image(i).as_tensor() for i in range(3)]

    cocycle = 0.0
    for i, j in _PAIRS:
        lhs = sum(c[i, j, k] * images[k] for k in range(3))
        rhs = _act_on_bivector_tensor(kp, i, images[j]) - _act_on_bivector_tensor(kp, j, images[i])
        cocycle = max(cocycle, float(np.max(np.abs(lhs - rhs))))

    f = np.zeros((3, 3, 3))
    for i in range(3):
        f[:, :, i] = delta.image(i).as_tensor()

    jacobi = 0.0
    for a, b, cc in itertools.product(range(3), repeat=3):
        term = (
            f[a, b, :] @ f[:, cc, :]
            + f[b, cc, :] @ f[:, a, :]
            + f[cc, a, :] @ f[:, b, :]
        )
        jacobi = max(jacobi, float(np.max(np.abs(term))))

    return BialgebraReport(cocycle, jacobi, f)


def _schouten_tensor(kp: KappaPair, r: Bivector) -> np.ndarray:
    """[[r, r]] as a coefficient tensor on e_a (x) e_b (x) e_c."""
    c = structure_tensor(kp)
    t = r.as_tensor()
    part12_13 = np.einsum("ij,kl,ikm->mjl", t, t, c)
    part12_23 = np.einsum("ij,kl,jkm->iml", t, t, c)
    part13_23 = np.einsum("ij,kl,jlm->ikm", t, t, c)
    return part12_13 + part12_23 + part13_23


_EPSILON3 = {perm: sign for perm, sign in (
    ((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
    ((0, 2, 1), -1.0), ((2, 1, 0), -1.0), ((1, 0, 2), -1.0),
)}


def schouten(kp: KappaPair, r: Bivector) -> Trivector:
    """Schouten bracket [[r, r]] projected on J01 ^ J02 ^ J12."""
    t = _schouten_tensor(kp, r)
    coeff = sum(sign * t[perm] for perm, sign in _EPSILON3.items()) / 6.0
    return Trivector(float(coeff))


def mcybe_defect(kp: KappaPair, r: Bivector) -> float:
    """Adjoint-invariance defect of [[r, r]] (modified classical YBE)."""
    t = _schouten_tensor(kp, r)
    c = structure_tensor(kp)
    worst = 0.0
    for b in range(3):
        ad = np.einsum("im->mi", c[b])  # ad[m, i] = c[b, i, m]
        moved = (
            np.einsum("am,mbc->abc", ad, t)
            + np.einsum("bm,amc->abc", ad, t)
            + np.einsum("cm,abm->abc", ad, t)
        )
        worst = max(worst, float(np.max(np.abs(moved))))
    return worst


def coisotropy_check(
    kp: KappaPair, delta: CocommutatorMap, h: str, tol: float = 1e-13
) -> CoisotropyVerdict:
    """Classify the one-generator subalgebra h against the cocommutator.

    POISSON_SUBGROUP when delta(h) lies in h ^ h (for a line this means
    delta(h) = 0), COISOTROPIC when delta(h) only lies in h ^ g, FAILS
    otherwise.
    """
    if h not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {h!r}, expected one of {GENERATOR_NAMES}")
    k = GENERATOR_NAMES.index(h)
    image = delta.image(k)
    if image.max_abs() <= tol:
        return CoisotropyVerdict.POISSON_SUBGROUP
    outside = max(
        abs(image.component(i, j)) for i, j in _PAIRS if i != k and j != k
    )
    if outside <= tol:
        return CoisotropyVerdict.COISOTROPIC
    return CoisotropyVerdict.FAILS


@dataclass(frozen=True)
class InvariantFields:
    """Left/right invariant vector fields at a group point.

    Rows follow the basis order (J01, J02, J12), columns the group
    coordinates (a1, a2, xi).
    """

    left: np.ndarray
    right: np.ndarray


def invariant_vector_fields(kp: KappaPair, gc: GroupCoordinates) -> InvariantFields:
    """Closed-form left/right invariant fields in ordered-product coordinates."""
    k1, k2, k12 = kp.k1, kp.k2, kp.k12
    c2 = ktrig.ck(k12, gc.a2)
    if abs(c2) < 1e-12:
        raise ChartDomainError("invariant fields diverge where the a2 cosine factor vanishes")
    t2 = ktrig.tk(k12, gc.a2)
    cxi, sxi = ktrig.ck(k2, gc.xi), ktrig.sk(k2, gc.xi)
    c1, s1 = ktrig.ck(k1, gc.a1), ktrig.sk(k1, gc.a1)
    left = np.array(
        [
            [cxi / c2, sxi, -k1 * t2 * cxi],
            [-k2 * sxi / c2, cxi, k12 * t2 * sxi],
            [0.0, 0.0, 1.0],
        ]
    )
    right = np.array(
        [
            [1.0, 0.0, 0.0],
            [k12 * s1 * t2, c1, -k1 * s1 / c2],
            [-k2 * c1 * t2, s1, c1 / c2],
        ]
    )
    return InvariantFields(left, right)


def invariant_fields_numeric(
    kp: KappaPair, gc: GroupCoordinates, step: float = TRANSLATION_STEP
) -> InvariantFields:
    """Oracle route: rebuild the invariant fields by differentiating group
    translations g exp(t X) (left fields) and exp(t X) g (right fields).

    The point g and its twelve translates are composed as raw 3x3 arrays;
    only g is checked for finiteness (ValueError).  The translates multiply
    g by matrices within `step` of the identity, so they are finite
    whenever g is, short of the floating-point overflow threshold.
    """
    g0 = _exp_matrix(kp, "J01", gc.a1) @ _exp_matrix(kp, "J02", gc.a2) @ _exp_matrix(kp, "J12", gc.xi)
    if not np.isfinite(g0).all():
        raise ValueError(f"group coordinates {gc} give a non-finite group element")
    left = np.zeros((3, 3))
    right = np.zeros((3, 3))
    for i, name in enumerate(GENERATOR_NAMES):
        plus = _exp_matrix(kp, name, step)
        minus = _exp_matrix(kp, name, -step)
        left[i] = (
            _coords_from_matrix(kp, g0 @ plus).as_array()
            - _coords_from_matrix(kp, g0 @ minus).as_array()
        ) / (2.0 * step)
        right[i] = (
            _coords_from_matrix(kp, plus @ g0).as_array()
            - _coords_from_matrix(kp, minus @ g0).as_array()
        ) / (2.0 * step)
    return InvariantFields(left, right)


def sklyanin_closed(
    kp: KappaPair, z: float, pair: tuple[str, str], gc: GroupCoordinates
) -> float:
    """Closed-form first-kind multiplicative bracket of two group coordinates."""
    for name in pair:
        if name not in _COORD_INDEX:
            raise ValueError(f"unknown coordinate {name!r}, expected one of {GROUP_COORD_NAMES}")
    f, g = pair
    if f == g:
        return 0.0
    if _COORD_INDEX[f] > _COORD_INDEX[g]:
        return -sklyanin_closed(kp, z, (g, f), gc)
    c2 = ktrig.ck(kp.k12, gc.a2)
    if abs(c2) < 1e-12:
        raise ChartDomainError("bracket coefficients diverge where the a2 cosine factor vanishes")
    if (f, g) == ("a1", "a2"):
        return z * kp.k2 * ktrig.tk(kp.k12, gc.a2)
    if (f, g) == ("a1", "xi"):
        return z * kp.k2 * ktrig.sk(kp.k2, gc.xi) / c2
    # (a2, xi)
    return -z * (c2 * ktrig.ck(kp.k2, gc.xi) - 1.0) / c2


def sklyanin_numeric(
    kp: KappaPair,
    r: Bivector,
    f: str,
    g: str,
    gc: GroupCoordinates,
    fields: str | InvariantFields = "closed",
) -> float:
    """Multiplicative bracket {f, g} = r^{ij} (L_i f L_j g - R_i f R_j g)
    of two coordinate functions, from invariant vector fields.

    fields = "closed" uses the closed-form fields, "numeric" the
    translation-differentiation oracle.  An InvariantFields value is used
    as given and must already be evaluated at gc; callers that bracket
    several coordinate pairs at one point pass it to build the fields once.
    """
    if f not in _COORD_INDEX or g not in _COORD_INDEX:
        raise ValueError(f"coordinates must be among {GROUP_COORD_NAMES}")
    if isinstance(fields, InvariantFields):
        iv = fields
    elif fields == "closed":
        iv = invariant_vector_fields(kp, gc)
    elif fields == "numeric":
        iv = invariant_fields_numeric(kp, gc)
    else:
        raise ValueError(f"unknown field mode {fields!r}, expected 'closed' or 'numeric'")
    t = r.as_tensor()
    cf, cg = _COORD_INDEX[f], _COORD_INDEX[g]
    left = iv.left[:, cf] @ t @ iv.left[:, cg]
    right = iv.right[:, cf] @ t @ iv.right[:, cg]
    return float(left - right)


def phs_points_bracket(
    kp: KappaPair, z: float, kind: DeformationKind, a1: float, a2: float
) -> float:
    """Poisson bracket {a1, a2} of the point coordinates on the quotient.

    First kind: z k2 tk(k1 k2, a2); second kind: z sk(k1, a1).
    """
    if kind is DeformationKind.FIRST_KIND:
        try:
            return z * kp.k2 * ktrig.tk(kp.k12, a2)
        except PoleError as exc:
            raise ChartDomainError(f"first-kind bracket undefined here: {exc}") from exc
    return z * ktrig.sk(kp.k1, a1)
