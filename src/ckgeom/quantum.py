"""Quantum deformation of the algebra family in the tensor-square representation.

The deformed coproduct keeps J01 primitive and dresses J02, J12 with
exponentials of J01:

    D_z(X) = X (x) exp(-(z/2) k2 J01) + exp((z/2) k2 J01) (x) X.

It is an algebra homomorphism for the deformed commutation relations

    [J12, J01] = J02,  [J12, J02] = -sinh(z k2 J01)/z,  [J01, J02] = k1 J12.

To witness that statement with matrices, the 3-dimensional images of J02
and J12 are rescaled by gamma = sqrt(sk(k1, z k2)/(z k2)), the unique
positive factor making the single copy close on -sinh(z k2 rho(J01))/z
instead of the undeformed -k2 rho(J01); gamma -> 1 as z k2 -> 0.  One
private builder, _coproduct_images, makes the scaled single copy, the two
dressing exponentials and the three coproduct images once per (kp, z);
coproduct_rep and every check read them from it.  The checks run on 9x9
(and 27x27 for coassociativity) Kronecker products.
Matrix functions of rho(J01) use its minimal polynomial
rho(J01)**3 = -k1 rho(J01), which closes exponentials in the labelled
trigonometry of the parameter.
"""

from __future__ import annotations

import math

import numpy as np

from . import ktrig
from .algebra import GENERATOR_NAMES, KappaPair
from .errors import ChartDomainError, DeformationDomainError, ProjectionError
from .group import expm_series, rep_basis
from .poisson import _PAIRS, Bivector, CocommutatorMap


def closed_exp_j01(kp: KappaPair, t: float) -> np.ndarray:
    """exp(t rho(J01)) through the minimal-polynomial identity."""
    p = rep_basis(kp)[0]
    return np.eye(3) + ktrig.sk(kp.k1, t) * p + ktrig.vk(kp.k1, t) * (p @ p)


def deformation_scale(kp: KappaPair, z: float) -> float:
    """Rescaling gamma of the J02/J12 images at deformation parameter z.

    gamma**2 * k2 = sk(k1, z k2)/z, so the rescaled commutator of J12 and
    J02 equals -sinh(z k2 rho(J01))/z exactly.  Equals 1 when z k2 = 0.
    Raises DeformationDomainError where sk(k1, z k2) changes sign, so that
    no real gamma exists.
    """
    u = z * kp.k2
    if u == 0.0:
        return 1.0
    ratio = ktrig.sk(kp.k1, u) / u
    if ratio <= 0.0:
        raise DeformationDomainError(
            f"deformation parameter too large: sk({kp.k1!r}, {u!r}) changes sign, "
            "no real rescaling exists"
        )
    return math.sqrt(ratio)


def _coproduct_images(kp: KappaPair, z: float) -> tuple[tuple, tuple, tuple]:
    """Single-copy images, dressings and coproduct images of (J01, J02, J12).

    rho keeps J01 and scales J02, J12 by deformation_scale, after which
    [J12, J02] = -sinh(z k2 J01)/z holds in the single copy and the other
    two relations are untouched.  dress[g] is the pair (minus, plus) with
    D_z(g) = rho_g (x) minus + plus (x) rho_g: the identity twice for the
    primitive J01, exp(-+(z/2) k2 rho(J01)) for J02 and J12.
    """
    j01, j02, j12 = rep_basis(kp)
    gamma = deformation_scale(kp, z)
    rho = (j01, gamma * j02, gamma * j12)
    eye = np.eye(3)
    dressed = (closed_exp_j01(kp, -0.5 * z * kp.k2), closed_exp_j01(kp, 0.5 * z * kp.k2))
    dress = ((eye, eye), dressed, dressed)
    images = tuple(np.kron(r, minus) + np.kron(plus, r) for r, (minus, plus) in zip(rho, dress))
    return rho, dress, images


def coproduct_classical(kp: KappaPair, generator: str) -> np.ndarray:
    """Undeformed (primitive) coproduct image in the 9x9 tensor square."""
    rho = dict(zip(GENERATOR_NAMES, rep_basis(kp)))[generator]
    eye = np.eye(3)
    return np.kron(rho, eye) + np.kron(eye, rho)


def coproduct_rep(kp: KappaPair, z: float, generator: str) -> np.ndarray:
    """Deformed coproduct image of a generator in the 9x9 tensor square."""
    if generator not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {generator!r}, expected one of {GENERATOR_NAMES}")
    return _coproduct_images(kp, z)[2][GENERATOR_NAMES.index(generator)]


def deformed_relation_defect(kp: KappaPair, z: float) -> float:
    """Largest defect of the deformed commutation relations.

    The relations are evaluated on the coproduct images in the tensor
    square, where they close to rounding error.  sinh is the odd part of
    the series exponential.
    """
    if z == 0.0:
        raise ValueError("deformed relations need z != 0; use the classical bracket instead")
    a01, a02, a12 = _coproduct_images(kp, z)[2]

    def comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x @ y - y @ x

    m = z * kp.k2 * a01
    plus, minus = expm_series(np.stack([m, -m]))
    sinh = 0.5 * (plus - minus)
    defect1 = np.max(np.abs(comm(a12, a01) - a02))
    defect2 = np.max(np.abs(comm(a12, a02) + sinh / z))
    defect3 = np.max(np.abs(comm(a01, a02) - kp.k1 * a12))
    return float(max(defect1, defect2, defect3))


def coassociativity_defect(kp: KappaPair, z: float) -> float:
    """Largest entry of (D (x) id) D - (id (x) D) D over the generators."""
    rho, dress, images = _coproduct_images(kp, z)
    worst = 0.0
    for r, (minus, plus), d1 in zip(rho, dress, images):
        lhs = np.kron(d1, minus) + np.kron(np.kron(plus, plus), r)
        rhs = np.kron(r, np.kron(minus, minus)) + np.kron(plus, d1)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def first_order_delta(kp: KappaPair, z: float) -> CocommutatorMap:
    """Extract the first-order cocommutator from the deformed coproduct.

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
            [(np.kron(rho[i], rho[j]) - np.kron(rho[j], rho[i])).ravel() for i, j in _PAIRS]
        ).T
        skews = []
        for name, dz in zip(GENERATOR_NAMES, _coproduct_images(kp, z)[2]):
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
        images.append(Bivector(*(float(c) for c in coeffs)))
    return CocommutatorMap(*images)
