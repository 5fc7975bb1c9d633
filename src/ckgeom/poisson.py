"""Poisson-Lie structures on the motion groups and their quotients.

Everything here is computed abstractly over structure constants in the
ordered basis (J01, J02, J12); the 3x3 representation never enters.  The
wedge convention is a ^ b = a (x) b - b (x) a.  Two coboundary families are
covered: the "first kind" classical r-matrix z J12 ^ J02 (deforming the
translation sector) and the "second kind" z J12 ^ J01.

A bivector is a float array of its components on the pairs (J01^J02,
J01^J12, J02^J12), shape (..., 3).  It has one tensor layout, _wedge_rows:
the components fill the upper triangle of an antisymmetric 3x3 matrix, in
_tensor and in the bracket matrix P below alike.  rmatrix,
cocommutator_map (images (..., 3 generators, 3 pairs)), bialgebra_check,
schouten, mcybe_defect and coisotropy_check are written once over a leading
stack of r-matrices, such as the (z, kind) rows of one label pair; one r is
the stack of shape ().

The induced multiplicative (Sklyanin) Poisson bracket on the group is one
bivector: in the group coordinates x = (a1, a2, xi) it is the
antisymmetric 3x3 matrix P[i, j] = {x_i, x_j}.  It is available in two
routes: closed forms in the labelled trigonometry, and the r-matrix
contraction L^T r L - R^T r R of the left/right invariant vector fields.
The fields come in closed form or from an oracle that rebuilds them by
differentiating group translations.

The oracle and closed-form fields, the closed-form bracket, the contraction
and the quotient bracket are written once, as _invariant_fields,
_invariant_vector_fields, _sklyanin_closed, _bracket and _phs_bracket over
the steps of ktrig (see there).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import ktrig
from .algebra import GENERATOR_NAMES, KappaPair, structure_tensor
from .errors import ChartDomainError, PoleError
from .group import GroupCoordinates, _coords, _group, _one_param
# Kept bound here: perfbench/tests/test_tracer.py checks that the tracer
# rebinds names a module imported from another layer, using this one.
from .group import coords_from_group  # noqa: F401
from .spaces import _matrix

_PAIRS = ((0, 1), (0, 2), (1, 2))
# index of the upper triangle of a 3x3 matrix, in _PAIRS order
_UPPER = tuple(zip(*_PAIRS))
GROUP_COORD_NAMES = ("a1", "a2", "xi")
GROUP_COORD_PAIRS = tuple((GROUP_COORD_NAMES[i], GROUP_COORD_NAMES[j]) for i, j in _PAIRS)
TRANSLATION_STEP = 1e-6


class DeformationKind(Enum):
    FIRST_KIND = "first"
    SECOND_KIND = "second"


class CoisotropyVerdict(Enum):
    POISSON_SUBGROUP = "poisson-subgroup"
    COISOTROPIC = "coisotropic"
    FAILS = "fails"


def _wedge_rows(a, b, c) -> list:
    """The rows of the antisymmetric matrix with a, b, c on the pairs
    (J01^J02, J01^J12, J02^J12) above the diagonal: the one bivector layout.
    The 0.0 + and 0.0 - round a signed zero as adding into a zero matrix does."""
    return [[0.0, 0.0 + a, 0.0 + b], [0.0 - a, 0.0, 0.0 + c], [0.0 - b, 0.0 - c, 0.0]]


def _tensor(r) -> np.ndarray:
    """The antisymmetric (..., 3, 3) tensors of the bivectors r, (..., 3)."""
    r = np.asarray(r, dtype=float)
    return _matrix(_wedge_rows(r[..., 0], r[..., 1], r[..., 2]))


def rmatrix(kind: DeformationKind, z) -> np.ndarray:
    """Classical r-matrix of the chosen family at deformation parameter z, a
    scalar or an array of them: a bivector, shape np.shape(z) + (3,)."""
    z = np.asarray(z, dtype=float)
    r = np.zeros(z.shape + (3,))
    # z J12 ^ J02 on J02^J12, z J12 ^ J01 on J01^J12
    r[..., 2 if kind is DeformationKind.FIRST_KIND else 1] = -1.0 * z
    return r


def _ad(kp: KappaPair) -> np.ndarray:
    """ad[x, m, i] with [e_x, e_i] = sum_m ad[x, m, i] e_m."""
    return structure_tensor(kp).transpose(0, 2, 1)


def _act(ad: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Adjoint action ad t + t ad^T on bivector tensors (broadcasts over stacks)."""
    return ad @ t + t @ np.swapaxes(ad, -1, -2)


def cocommutator_map(kp: KappaPair, r) -> np.ndarray:
    """Coboundary cocommutator delta(x) = [x (x) 1 + 1 (x) x, r] on the
    basis, for the bivectors r, (..., 3): the images (..., 3, 3), one
    bivector per generator, in one broadcast.  An image whose sums overflow
    holds inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _act(_ad(kp), _tensor(r)[..., None, :, :])[..., _UPPER[0], _UPPER[1]]


def bialgebra_check(kp: KappaPair, images) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cocycle and dual-Jacobi defects of candidate cocommutator images,
    (..., 3, 3) as cocommutator_map gives them, and the dual structure
    tensor f, (..., 3, 3, 3): [xi^j, xi^k] = sum_i f[..., j, k, i] xi^i.

    The cocycle condition compares delta([e_i, e_j]) against the adjoint
    action of each argument on the other image.  The dual structure tensor
    is read off the bivector components of the images and its Jacobi
    identity is evaluated directly.  A defect whose sums overflow is inf or
    nan.
    """
    c, ad = structure_tensor(kp), _ad(kp)
    t = _tensor(images)
    # a sum that overflows below makes its defect inf or nan, which no
    # tolerance passes
    with np.errstate(over="ignore", invalid="ignore"):
        # lhs[..., i, j] = delta([e_i, e_j]), act[..., i, j] = e_i acting on delta(e_j)
        lhs = np.sum(c[:, :, :, None, None] * t[..., None, None, :, :, :], axis=-3)
        act = _act(ad[:, None], t[..., None, :, :, :])
        cocycle = np.abs(lhs - (act - np.swapaxes(act, -4, -3))).max(axis=(-4, -3, -2, -1))

        f = np.moveaxis(t, -3, -1)  # f[..., j, k, i] = delta(e_i) on e_j (x) e_k
        jac = np.einsum("...abm,...mcn->...abcn", f, f)
        term = jac + np.moveaxis(jac, -2, -4) + np.moveaxis(jac, -4, -2)
        jacobi = np.abs(term).max(axis=(-4, -3, -2, -1))
    return cocycle, jacobi, f


def _schouten_tensor(kp: KappaPair, r) -> np.ndarray:
    """[[r, r]] of the bivectors r, (..., 3), as coefficient tensors on
    e_a (x) e_b (x) e_c, (..., 3, 3, 3)."""
    c = structure_tensor(kp)
    t = _tensor(r)
    part12_13 = np.einsum("...ij,...kl,ikm->...mjl", t, t, c)
    part12_23 = np.einsum("...ij,...kl,jkm->...iml", t, t, c)
    part13_23 = np.einsum("...ij,...kl,jlm->...ikm", t, t, c)
    return part12_13 + part12_23 + part13_23


_EPSILON3 = {perm: sign for perm, sign in (
    ((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
    ((0, 2, 1), -1.0), ((2, 1, 0), -1.0), ((1, 0, 2), -1.0),
)}


def schouten(kp: KappaPair, r) -> np.ndarray:
    """Coefficient of the Schouten bracket [[r, r]] on J01 ^ J02 ^ J12, for
    the bivectors r, (..., 3).

    The projection is the alternating sum over the six index orders of the
    coefficient tensor, divided by 6.
    """
    return _schouten_coefficient(_schouten_tensor(kp, r))


def _schouten_coefficient(t: np.ndarray) -> np.ndarray:
    """schouten of the tensors t of _schouten_tensor."""
    terms = [sign * t[(..., *perm)] for perm, sign in _EPSILON3.items()]
    # a sum that overflows makes the coefficient inf or nan, which fails its
    # row; where every term is finite, the terms each divided by 6 sum to it
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = sum(terms) / 6.0
        if np.isfinite(coeff).all():
            return coeff
        redo = ~np.isfinite(coeff) & np.isfinite(terms).all(axis=0)
        return np.where(redo, sum(x / 6.0 for x in terms), coeff)[()]


def mcybe_defect(kp: KappaPair, r) -> np.ndarray:
    """Adjoint-invariance defect of [[r, r]] (modified classical YBE), for
    the bivectors r, (..., 3); a defect whose sums overflow is inf or nan."""
    return _mcybe_defect(kp, _schouten_tensor(kp, r))


def _mcybe_defect(kp: KappaPair, t: np.ndarray) -> np.ndarray:
    """mcybe_defect of the tensors t of _schouten_tensor."""
    ad = _ad(kp)
    # a sum that overflows at huge labels makes the defect inf or nan, which
    # no tolerance passes
    with np.errstate(over="ignore", invalid="ignore"):
        moved = (
            np.einsum("xam,...mbc->...xabc", ad, t)
            + np.einsum("xbm,...amc->...xabc", ad, t)
            + np.einsum("xcm,...abm->...xabc", ad, t)
        )
    return np.abs(moved).max(axis=(-4, -3, -2, -1))


_VERDICTS = np.array(list(CoisotropyVerdict), dtype=object)


def coisotropy_check(kp: KappaPair, images, h: str):
    """Classify the one-generator subalgebra h against the cocommutator
    images, (..., 3, 3): a CoisotropyVerdict, or an object array of them
    over the stack.

    POISSON_SUBGROUP when delta(h) lies in h ^ h (for a line this means
    delta(h) = 0), COISOTROPIC when delta(h) only lies in h ^ g, FAILS
    otherwise.  Components up to 1e-13 in absolute value count as zero.
    """
    if h not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {h!r}, expected one of {GENERATOR_NAMES}")
    k = GENERATOR_NAMES.index(h)
    image = np.abs(np.asarray(images)[..., k, :])
    # _PAIRS[2 - k] is the one pair without e_k
    verdict = np.where(image.max(axis=-1) <= 1e-13, 0, np.where(image[..., 2 - k] <= 1e-13, 1, 2))
    return _VERDICTS[verdict]


@dataclass(frozen=True)
class InvariantFields:
    """Left/right invariant vector fields at a group point.

    Rows follow the basis order (J01, J02, J12), columns the group
    coordinates (a1, a2, xi).
    """

    left: np.ndarray
    right: np.ndarray


def _invariant_vector_fields(kp: KappaPair, a1, a2, xi, steps) -> InvariantFields:
    """Closed-form left/right invariant fields at the points (a1, a2, xi),
    floats or arrays of one shape, through steps (see ktrig)."""
    k1, k2, k12 = kp.k1, kp.k2, kp.k12
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # at a flagged point
        c2 = steps.ck(k12, a2)
        if steps.fails(abs(c2) < ktrig.DEFAULT_POLE_TOL):
            raise ChartDomainError("invariant fields diverge where the a2 cosine factor vanishes")
        t2 = steps.tk(k12, a2)
        cxi, sxi = steps.ck(k2, xi), steps.sk(k2, xi)
        c1, s1 = steps.ck(k1, a1), steps.sk(k1, a1)
        left = [
            [cxi / c2, sxi, -k1 * t2 * cxi],
            [-k2 * sxi / c2, cxi, k12 * t2 * sxi],
            [0.0, 0.0, 1.0],
        ]
        right = [
            [1.0, 0.0, 0.0],
            [k12 * s1 * t2, c1, -k1 * s1 / c2],
            [-k2 * c1 * t2, s1, c1 / c2],
        ]
    return InvariantFields(_matrix(left), _matrix(right))


def _invariant_fields(kp: KappaPair, x: np.ndarray, steps) -> InvariantFields:
    """Oracle route: the invariant fields at the points x, (..., 3), from
    the translations g exp(t X) (left) and exp(t X) g (right), through steps
    (see ktrig).  The twelve translates of every point are read back at
    once; they differ from g by TRANSLATION_STEP, but reading their
    coordinates back squares the entries of g, which can overflow."""
    g0 = _group(kp, x, steps)
    translates = []
    with np.errstate(over="ignore", invalid="ignore"):
        for name in GENERATOR_NAMES:
            plus, minus = (_one_param(kp, name, t, steps) for t in (TRANSLATION_STEP, -TRANSLATION_STEP))
            translates += [g0 @ plus, g0 @ minus, plus @ g0, minus @ g0]
        coords = steps.each(lambda m, each: _coords(kp, m, each, finite=False), np.stack(translates))
        # [generator, translate, ..., coordinate] -> [translate, ..., generator, coordinate]
        c = np.moveaxis(coords.reshape(3, 4, *x.shape), 0, -2)
        left = (c[0] - c[1]) / (2.0 * TRANSLATION_STEP)
        right = (c[2] - c[3]) / (2.0 * TRANSLATION_STEP)
    finite = np.isfinite(left).all(axis=(-2, -1)) & np.isfinite(right).all(axis=(-2, -1))
    if steps.fails(~finite):
        raise ChartDomainError(f"numeric invariant fields at {GroupCoordinates(*x.tolist())} overflow")
    return InvariantFields(left, right)


def _sklyanin_closed(kp: KappaPair, z: float, x: np.ndarray, steps) -> np.ndarray:
    """Closed-form first-kind bracket matrices P[i, j] = {x_i, x_j} at the
    group points x = (a1, a2, xi), (..., 3), through steps (see ktrig)."""
    a2, xi = x[..., 1], x[..., 2]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c2 = steps.ck(kp.k12, a2)
        if steps.fails(abs(c2) < ktrig.DEFAULT_POLE_TOL):
            raise ChartDomainError("bracket coefficients diverge where the a2 cosine factor vanishes")
        s2, sxi, cxi = steps.sk(kp.k12, a2), steps.sk(kp.k2, xi), steps.ck(kp.k2, xi)
        upper = (z * kp.k2 * (s2 / c2), z * kp.k2 * sxi / c2, -z * (c2 * cxi - 1.0) / c2)
    return _matrix(_wedge_rows(*upper))


def _bracket(r: np.ndarray, fields: InvariantFields, steps) -> np.ndarray:
    """L^T r L - R^T r R of the bivector r, (3,), at the points of fields,
    one or a stack of them, through steps (see ktrig): a bracket that
    overflows fails."""
    t = _tensor(r)
    left, right = fields.left, fields.right
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.swapaxes(left, -1, -2) @ t @ left - np.swapaxes(right, -1, -2) @ t @ right
    if steps.fails(~np.isfinite(p).all(axis=(-2, -1))):
        raise ChartDomainError("the numeric Sklyanin bracket overflows")
    return p


# Kept public: perfbench/tests/test_tracer.py traces its rebinding in checks.
def sklyanin_numeric(r: np.ndarray, fields: InvariantFields) -> np.ndarray:
    """Multiplicative bracket matrix P[i, j] = r^{ab} (L_a x_i L_b x_j -
    R_a x_i R_b x_j) of the group coordinates, from invariant vector fields
    and the bivector r, (3,).

    The bracket is taken at the group point the fields were evaluated at:
    _invariant_vector_fields gives the closed-form fields, _invariant_fields
    the translation-differentiation oracle.  Fields stacked over N points
    give the (N, 3, 3) stack of their brackets.  A bracket that overflows
    raises ChartDomainError.
    """
    flag = ktrig._Flag(np.shape(fields.left)[:-2])
    p = _bracket(r, fields, flag)
    if np.count_nonzero(flag.bad):
        _bracket(r, InvariantFields(fields.left[flag.bad][0], fields.right[flag.bad][0]), ktrig)
    return p


def phs_points_bracket(
    kp: KappaPair, z: float, kind: DeformationKind, a1: float, a2: float
) -> float:
    """Poisson bracket {a1, a2} of the point coordinates on the quotient.

    First kind: z k2 tk(k1 k2, a2); second kind: z sk(k1, a1).
    """
    try:
        return _phs_bracket(kp, z, kind, a1, a2, ktrig)
    except PoleError as exc:
        raise ChartDomainError(f"first-kind bracket undefined here: {exc}") from exc


def _phs_bracket(kp: KappaPair, z: float, kind: DeformationKind, a1, a2, steps):
    """phs_points_bracket at the points (a1, a2), floats or arrays of one
    shape, through steps (see ktrig), where a pole is a PoleError."""
    if kind is DeformationKind.FIRST_KIND:
        return z * kp.k2 * steps.tk(kp.k12, a2)
    return z * steps.sk(kp.k1, a1)
