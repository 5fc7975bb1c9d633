"""Quantum deformation of the algebra family in the tensor-square representation.

The deformed coproduct keeps J01 primitive and dresses J02, J12 with
exponentials of J01:

    D_z(X) = X (x) exp(-(z/2) k2 J01) + exp((z/2) k2 J01) (x) X.

It is an algebra homomorphism for the deformed commutation relations

    [J12, J01] = J02,  [J12, J02] = -sinh(z k2 J01)/z,  [J01, J02] = k1 J12.

To witness that statement with matrices, the 3-dimensional images of J02
and J12 are rescaled by gamma = sqrt(sk(k1, z k2)/(z k2)), the unique
positive factor making the single copy close on -sinh(z k2 rho(J01))/z
instead of the undeformed -k2 rho(J01); gamma -> 1 as z k2 -> 0.  All
checks then run on 9x9 (and 27x27 for coassociativity) Kronecker products.
Matrix functions of rho(J01) use its minimal polynomial
rho(J01)**3 = -k1 rho(J01), which closes exponentials in the labelled
trigonometry of the parameter.
"""

from __future__ import annotations

import math

import numpy as np

from . import ktrig
from .algebra import GENERATOR_NAMES, KappaPair
from .errors import ProjectionError
from .group import expm_series, rep_basis
from .poisson import _PAIRS, Bivector, CocommutatorMap

# TensorSquareElement: a 9x9 real ndarray over the Kronecker-square basis.
TensorSquareElement = np.ndarray


def _swap_matrix() -> np.ndarray:
    """Flip u (x) v -> v (x) u of the 3-dimensional tensor square."""
    s = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            s[i * 3 + j, j * 3 + i] = 1.0
    return s


_SWAP9 = _swap_matrix()


def closed_exp_j01(kp: KappaPair, t: float) -> np.ndarray:
    """exp(t rho(J01)) through the minimal-polynomial identity."""
    p = rep_basis(kp)[0]
    return np.eye(3) + ktrig.sk(kp.k1, t) * p + ktrig.vk(kp.k1, t) * (p @ p)


def matrix_sinh(m: np.ndarray) -> np.ndarray:
    """Odd part of the series exponential."""
    return 0.5 * (expm_series(m) - expm_series(-m))


def deformation_scale(kp: KappaPair, z: float) -> float:
    """Rescaling gamma of the J02/J12 images at deformation parameter z.

    gamma**2 * k2 = sk(k1, z k2)/z, so the rescaled commutator of J12 and
    J02 equals -sinh(z k2 rho(J01))/z exactly.  Equals 1 when z k2 = 0.
    """
    u = z * kp.k2
    if u == 0.0:
        return 1.0
    ratio = ktrig.sk(kp.k1, u) / u
    if ratio <= 0.0:
        raise ValueError(
            f"deformation parameter too large: sk({kp.k1!r}, {u!r}) changes sign, "
            "no real rescaling exists"
        )
    return math.sqrt(ratio)


def deformed_rep_basis(kp: KappaPair, z: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Images of (J01, J02, J12) satisfying the deformed relations.

    J01 is kept; J02 and J12 are scaled by deformation_scale, after which
    [J12, J02] = -sinh(z k2 J01)/z holds in the single copy and the other
    two relations are untouched.
    """
    j01, j02, j12 = rep_basis(kp)
    gamma = deformation_scale(kp, z)
    return j01, gamma * j02, gamma * j12


def coproduct_classical(kp: KappaPair, generator: str) -> TensorSquareElement:
    """Undeformed (primitive) coproduct image."""
    rho = dict(zip(GENERATOR_NAMES, rep_basis(kp)))[generator]
    eye = np.eye(3)
    return np.kron(rho, eye) + np.kron(eye, rho)


def coproduct_rep(kp: KappaPair, z: float, generator: str) -> TensorSquareElement:
    """Deformed coproduct image of a generator in the tensor square."""
    if generator not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {generator!r}, expected one of {GENERATOR_NAMES}")
    rho = dict(zip(GENERATOR_NAMES, deformed_rep_basis(kp, z)))[generator]
    if generator == "J01":
        eye = np.eye(3)
        return np.kron(rho, eye) + np.kron(eye, rho)
    e_minus = closed_exp_j01(kp, -0.5 * z * kp.k2)
    e_plus = closed_exp_j01(kp, 0.5 * z * kp.k2)
    return np.kron(rho, e_minus) + np.kron(e_plus, rho)


def deformed_relation_defect(kp: KappaPair, z: float) -> float:
    """Largest defect of the deformed commutation relations.

    The relations are evaluated on the coproduct images in the tensor
    square, where they close to rounding error.
    """
    if z == 0.0:
        raise ValueError("deformed relations need z != 0; use the classical bracket instead")
    a01 = coproduct_rep(kp, z, "J01")
    a02 = coproduct_rep(kp, z, "J02")
    a12 = coproduct_rep(kp, z, "J12")

    def comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x @ y - y @ x

    defect1 = np.max(np.abs(comm(a12, a01) - a02))
    defect2 = np.max(np.abs(comm(a12, a02) + matrix_sinh(z * kp.k2 * a01) / z))
    defect3 = np.max(np.abs(comm(a01, a02) - kp.k1 * a12))
    return float(max(defect1, defect2, defect3))


def coassociativity_defect(kp: KappaPair, z: float) -> float:
    """Largest entry of (D (x) id) D - (id (x) D) D over the generators."""
    rho = dict(zip(GENERATOR_NAMES, deformed_rep_basis(kp, z)))
    eye3 = np.eye(3)
    eye9 = np.eye(9)
    e_minus = closed_exp_j01(kp, -0.5 * z * kp.k2)
    e_plus = closed_exp_j01(kp, 0.5 * z * kp.k2)
    worst = 0.0
    for name in GENERATOR_NAMES:
        d1 = coproduct_rep(kp, z, name)
        if name == "J01":
            lhs = np.kron(d1, eye3) + np.kron(eye9, rho[name])
            rhs = np.kron(rho[name], eye9) + np.kron(eye3, d1)
        else:
            lhs = np.kron(d1, e_minus) + np.kron(np.kron(e_plus, e_plus), rho[name])
            rhs = np.kron(rho[name], np.kron(e_minus, e_minus)) + np.kron(e_plus, d1)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def rep_to_bivector(kp: KappaPair, m: TensorSquareElement) -> tuple[Bivector, float]:
    """Least-squares coordinates of a 9x9 matrix over the wedge-basis images.

    Returns the bivector and the max-abs reconstruction residual.  The
    wedge-basis images are linearly independent for every label pair (their
    supports in the Kronecker square are disjoint), so the projection is
    well defined.
    """
    rho = rep_basis(kp)
    columns = []
    for i, j in _PAIRS:
        w = np.kron(rho[i], rho[j]) - np.kron(rho[j], rho[i])
        columns.append(w.ravel())
    basis = np.array(columns).T
    coeffs, *_ = np.linalg.lstsq(basis, np.asarray(m, dtype=float).ravel(), rcond=None)
    residual = float(np.max(np.abs(np.asarray(m).ravel() - basis @ coeffs)))
    return Bivector(*(float(c) for c in coeffs)), residual


def first_order_delta(kp: KappaPair, z: float) -> CocommutatorMap:
    """Extract the first-order cocommutator from the deformed coproduct.

    Antisymmetrizes (D_z - D_0)(X) with the tensor-square flip and projects
    back onto wedges of generators.  Intended for small z (the extraction
    carries an O(z**2) error); an off-span residual above 100 z**2 + 1e-13
    raises ProjectionError.
    """
    images = []
    for name in GENERATOR_NAMES:
        d = coproduct_rep(kp, z, name) - coproduct_classical(kp, name)
        skew = d - _SWAP9 @ d @ _SWAP9
        b, residual = rep_to_bivector(kp, skew)
        if residual > 100.0 * z * z + 1e-13:
            raise ProjectionError(
                f"first-order image of {name} misses the wedge span by {residual:.3e}"
            )
        images.append(b)
    return CocommutatorMap(*images)
