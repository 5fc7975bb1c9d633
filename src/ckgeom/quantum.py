"""Quantum deformation of the algebra family in the tensor-square representation.

The deformed coproduct keeps J01 primitive and dresses J02, J12 with
exponentials of J01:

    D_z(X) = X (x) exp(-(z/2) k2 J01) + exp((z/2) k2 J01) (x) X.

It is an algebra homomorphism for the deformed commutation relations

    [J12, J01] = J02,  [J12, J02] = -sinh(z k2 J01)/z,  [J01, J02] = k1 J12.

To witness that statement with matrices, the 3-dimensional images of J02
and J12 are rescaled by gamma = sqrt(sk(k1, z k2)/(z k2)), the unique
positive factor making the single copy close on -sinh(z k2 rho(J01))/z
instead of the undeformed -k2 rho(J01); gamma -> 1 as z k2 -> 0.

_coproduct_images, _deformation_scale, _closed_exp_j01 and the two defects
are written once over the steps of ktrig, for one z or an axis of them; the
public functions are their one-z calls with ktrig.  Kronecker products are
broadcast (_kron) with np.kron's bits.  A `coproduct` command over
normalized9 with 16 z builds the images 9 times (_image_stack) and makes 180
Kronecker products.
Matrix functions of rho(J01) use its minimal polynomial
rho(J01)**3 = -k1 rho(J01), which closes exponentials in the labelled
trigonometry of the parameter.
"""

from __future__ import annotations

import functools

import numpy as np

from . import ktrig
from .algebra import GENERATOR_NAMES, KappaPair
from .errors import ChartDomainError, DeformationDomainError, ProjectionError
from .group import _series, rep_basis
from .poisson import _PAIRS


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the matrices in the last two axes of a and b, broadcast
    over the axes before them: each entry is np.kron's product a[i, j] * b[k, l]."""
    p = a[..., :, None, :, None] * b[..., None, :, None, :]
    return p.reshape(p.shape[:-4] + (p.shape[-4] * p.shape[-3], p.shape[-2] * p.shape[-1]))


def _col(v) -> np.ndarray:
    # one scalar or an axis of them, against the matrices of that axis
    return np.asarray(v)[..., None, None]


def _closed_exp_j01(kp: KappaPair, t, steps) -> np.ndarray:
    """exp(t rho(J01)) through the minimal-polynomial identity, through
    steps (see ktrig)."""
    p = rep_basis(kp)[0]
    s = steps.sk(kp.k1, t)
    return np.eye(3) + _col(s) * p + _col(steps.vk(kp.k1, t)) * (p @ p)


def _deformation_scale(kp: KappaPair, z, steps):
    """Rescaling gamma of the J02/J12 images at one deformation parameter z
    or an axis of them, through steps (see ktrig).

    gamma**2 * k2 = sk(k1, z k2)/z, so the rescaled commutator of J12 and
    J02 equals -sinh(z k2 rho(J01))/z exactly.  Equals 1 when z k2 = 0.
    Fails with DeformationDomainError where sk(k1, z k2) changes sign, so
    that no real gamma exists.
    """
    u = z * kp.k2
    # u = 0 gives 0/0, a nan that fails no test and gives way to gamma = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(steps.sk(kp.k1, u), u)
    if steps.fails(ratio <= 0.0):
        raise DeformationDomainError(
            f"deformation parameter too large: sk({kp.k1!r}, {u!r}) changes sign, "
            "no real rescaling exists"
        )
    return np.sqrt(np.where(u == 0.0, 1.0, ratio))


def _coproduct_images(kp: KappaPair, z, steps) -> tuple[tuple, tuple, tuple]:
    """Single-copy images, dressing and coproduct images of (J01, J02, J12)
    at one z or an axis of them, through steps (see ktrig).

    rho keeps J01 and scales J02, J12 by _deformation_scale, after which
    [J12, J02] = -sinh(z k2 J01)/z holds in the single copy and the other
    two relations are untouched.  The dressing (minus, plus) =
    exp(-+(z/2) k2 rho(J01)) gives D_z(g) = rho_g (x) minus + plus (x) rho_g
    for J02 and J12; the primitive J01 is dressed with the identity, and its
    single copy and image carry no z axis.
    """
    j01, j02, j12 = rep_basis(kp)
    eye = np.eye(3)
    with np.errstate(all="ignore"):  # an overflow is an inf or nan defect
        gamma = _col(_deformation_scale(kp, z, steps))
        rho = (j01, gamma * j02, gamma * j12)
        minus = _closed_exp_j01(kp, -0.5 * z * kp.k2, steps)
        plus = _closed_exp_j01(kp, 0.5 * z * kp.k2, steps)
        images = (_kron(j01, eye) + _kron(eye, j01), *(_kron(r, minus) + _kron(plus, r) for r in rho[1:]))
    return rho, (minus, plus), images


def coproduct_classical(kp: KappaPair, generator: str) -> np.ndarray:
    """Undeformed (primitive) coproduct image in the 9x9 tensor square."""
    rho = dict(zip(GENERATOR_NAMES, rep_basis(kp)))[generator]
    eye = np.eye(3)
    return _kron(rho, eye) + _kron(eye, rho)


def deformed_relation_defect(kp: KappaPair, z: float) -> float:
    """Largest defect of the deformed commutation relations.

    The relations are evaluated on the coproduct images in the tensor
    square, where they close to rounding error.  sinh is the odd part of
    the series exponential.
    """
    if z == 0.0:
        raise ValueError("deformed relations need z != 0; use the classical bracket instead")
    return float(_relation_defect(kp, z, _coproduct_images(kp, z, ktrig)[2], ktrig))


def _relation_defect(kp: KappaPair, z, images: tuple, steps):
    a01, a02, a12 = images
    with np.errstate(all="ignore"):  # an overflow is an inf or nan defect
        m = _col(z * kp.k2) * a01
        plus, minus = steps.each(_series, np.stack([m, -m]))
        defects = (
            a12 @ a01 - a01 @ a12 - a02,
            a12 @ a02 - a02 @ a12 + 0.5 * (plus - minus) / _col(z),
            a01 @ a02 - a02 @ a01 - kp.k1 * a12,
        )
        return functools.reduce(np.maximum, (np.abs(d).max(axis=(-2, -1)) for d in defects))


def coassociativity_defect(kp: KappaPair, z: float) -> float:
    """Largest entry of (D (x) id) D - (id (x) D) D over the generators."""
    return float(_coassociativity_defect(*_coproduct_images(kp, z, ktrig)))


def _coassociativity_defect(rho: tuple, dress: tuple, images: tuple):
    minus, plus = dress
    with np.errstate(all="ignore"):  # an overflow is an inf or nan defect
        # J02 and J12 share their dressing and its Kronecker squares
        shared = (minus, plus, _kron(minus, minus), _kron(plus, plus))
        dressings = ((np.eye(3), np.eye(3), np.eye(9), np.eye(9)), shared, shared)
        return functools.reduce(np.maximum, (
            np.abs(_kron(d1, m) + _kron(pp, r) - (_kron(r, mm) + _kron(p, d1))).max(axis=(-2, -1))
            for r, d1, (m, p, mm, pp) in zip(rho, images, dressings)
        ))


def _image_stack(kp: KappaPair, z: np.ndarray) -> tuple[tuple, np.ndarray]:
    """_coproduct_images at each z of the 1-D array z, and the mask of the z
    where it raises; the caller evaluates a flagged z again with a one-z call."""
    flag = ktrig._Flag(z.shape)
    return _coproduct_images(kp, z, flag), flag.bad


def _relation_stack(kp: KappaPair, z: np.ndarray, parts: tuple, bad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The relation defect at each z of _image_stack's parts and mask, and
    its own mask: a failing series exponential fails the relations only."""
    series = ktrig._Flag(z.shape)
    return _relation_defect(kp, z, parts[2], series), bad | series.bad


def first_order_delta(kp: KappaPair, z: float) -> np.ndarray:
    """Extract the first-order cocommutator from the deformed coproduct: the
    images of the basis, (3, 3), laid out as poisson.cocommutator_map's.

    Antisymmetrizes (D_z - D_0)(X) with the tensor-square flip and projects
    back onto wedges of generators by least squares.  The wedge images are
    linearly independent for every label pair (their supports in the
    Kronecker square are disjoint), so the projection is well defined.
    Intended for small z (the extraction carries an O(z**2) error); an
    off-span residual above 100 z**2 + 1e-13 raises ProjectionError, and
    a wedge basis or an image that overflows raises ChartDomainError.
    """
    rho = rep_basis(kp)
    # an overflow here is caught below, as a non-finite entry
    with np.errstate(over="ignore", invalid="ignore"):
        basis = np.array(
            [(_kron(rho[i], rho[j]) - _kron(rho[j], rho[i])).ravel() for i, j in _PAIRS]
        ).T
        skews = []
        for name, dz in zip(GENERATOR_NAMES, _coproduct_images(kp, z, ktrig)[2]):
            d = dz - coproduct_classical(kp, name)
            # u (x) v -> v (x) u on both sides: swap the two factors of rows and columns
            skews.append((d - d.reshape(3, 3, 3, 3).transpose(1, 0, 3, 2).reshape(9, 9)).ravel())
    if not (np.isfinite(basis).all() and np.isfinite(skews).all()):
        raise ChartDomainError("first_order_delta: the wedge basis or a first-order image overflows")
    images = []
    for name, skew in zip(GENERATOR_NAMES, skews):
        coeffs, *_ = np.linalg.lstsq(basis, skew, rcond=None)
        residual = float(np.max(np.abs(skew - basis @ coeffs)))
        if residual > 100.0 * z * z + 1e-13:
            raise ProjectionError(
                f"first-order image of {name} misses the wedge span by {residual:.3e}"
            )
        images.append(coeffs)
    return np.array(images)
