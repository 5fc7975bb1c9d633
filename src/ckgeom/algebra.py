"""The two-parameter family of real 3-dimensional Lie algebras behind the
nine plane geometries.

Basis is ordered (J01, J02, J12) throughout the package.  The defining
brackets at curvature labels (k1, k2) are

    [J12, J01] = J02,   [J12, J02] = -k2 J01,   [J01, J02] = k1 J12,

with Casimir  C = k2 J01**2 + J02**2 + k1 J12**2.  The sign pattern of
(k1, k2) selects one of nine geometries; each positive rescaling of either
label is an isomorphism, so classification only looks at signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadSpeedError

GENERATOR_NAMES = ("J01", "J02", "J12")


def _check_finite(label: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value!r}")


@dataclass(frozen=True)
class KappaPair:
    """Curvature labels (k1, k2) of one member of the family.

    k1 is the curvature of the point space, k2 the signature label of the
    space of first-kind lines.
    """

    k1: float
    k2: float

    def __post_init__(self) -> None:
        _check_finite("k1", self.k1)
        _check_finite("k2", self.k2)

    @property
    def k12(self) -> float:
        return self.k1 * self.k2

    def signs(self) -> tuple[int, int]:
        return (_sign(self.k1), _sign(self.k2))


def _sign(x: float) -> int:
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


@dataclass(frozen=True)
class AlgebraElement:
    """Element c01 J01 + c02 J02 + c12 J12 in the ordered basis."""

    c01: float = 0.0
    c02: float = 0.0
    c12: float = 0.0

    def __post_init__(self) -> None:
        _check_finite("c01", self.c01)
        _check_finite("c02", self.c02)
        _check_finite("c12", self.c12)

    def as_array(self) -> np.ndarray:
        return np.array([self.c01, self.c02, self.c12], dtype=float)

    @classmethod
    def from_array(cls, coeffs) -> "AlgebraElement":
        c = np.asarray(coeffs, dtype=float)
        return cls(float(c[0]), float(c[1]), float(c[2]))


J01 = AlgebraElement(1.0, 0.0, 0.0)
J02 = AlgebraElement(0.0, 1.0, 0.0)
J12 = AlgebraElement(0.0, 0.0, 1.0)
BASIS = (J01, J02, J12)


def bracket(kp: KappaPair, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket [x, y] at curvature labels kp."""
    return AlgebraElement(*_bracket_coeffs(kp, (x.c01, x.c02, x.c12), (y.c01, y.c02, y.c12)))


def _bracket_coeffs(kp: KappaPair, x, y) -> tuple:
    """Coefficients of [x, y] from the coefficient triples x and y, whose
    entries are floats or arrays of one shape."""
    x01, x02, x12 = x
    y01, y02, y12 = y
    return (
        kp.k2 * (x02 * y12 - x12 * y02),
        x12 * y01 - x01 * y12,
        kp.k1 * (x01 * y02 - x02 * y01),
    )


def casimir_coeffs(kp: KappaPair) -> tuple[float, float, float]:
    """Coefficients (on J01**2, J02**2, J12**2) of the quadratic Casimir."""
    return (kp.k2, 1.0, kp.k1)


def structure_tensor(kp: KappaPair) -> np.ndarray:
    """c[i, j, k] with [e_i, e_j] = sum_k c[i, j, k] e_k over the ordered basis.

    The six nonzero entries are the defining brackets and their negatives.
    """
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = kp.k1, -kp.k1  # [J01, J02] = k1 J12
    c[2, 0, 1], c[0, 2, 1] = 1.0, -1.0  # [J12, J01] = J02
    c[1, 2, 0], c[2, 1, 0] = kp.k2, -kp.k2  # [J02, J12] = k2 J01
    return c


class GeometryName(Enum):
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"
    CO_EUCLIDEAN = "co-euclidean"
    GALILEAN = "galilean"
    CO_MINKOWSKIAN = "co-minkowskian"
    CO_HYPERBOLIC = "co-hyperbolic"
    MINKOWSKIAN = "minkowskian"
    DOUBLY_HYPERBOLIC = "doubly hyperbolic"


@dataclass(frozen=True)
class GeometryLabel:
    """Classification record: geometry name, motion group, isotropy subgroups.

    h0 is the isotropy subgroup of a point, h01 of a first-kind line and
    h02 of a second-kind line.  "R" denotes the real line.
    """

    name: GeometryName
    kinematical_name: str | None
    group_name: str
    h0: str
    h01: str
    h02: str

    @property
    def display_name(self) -> str:
        if self.kinematical_name is None:
            return self.name.value
        return f"{self.name.value} ({self.kinematical_name})"


# (sign k1, sign k2) -> (name, kinematical alias, motion group)
_CLASSIFICATION = {
    (1, 1): (GeometryName.SPHERICAL, None, "SO(3)"),
    (0, 1): (GeometryName.EUCLIDEAN, None, "ISO(2)"),
    (-1, 1): (GeometryName.HYPERBOLIC, None, "SO(2,1)"),
    (1, 0): (GeometryName.CO_EUCLIDEAN, "oscillating Newton-Hooke", "ISO(2)"),
    (0, 0): (GeometryName.GALILEAN, None, "IISO(1)"),
    (-1, 0): (GeometryName.CO_MINKOWSKIAN, "expanding Newton-Hooke", "ISO(1,1)"),
    (1, -1): (GeometryName.CO_HYPERBOLIC, "anti-de Sitter", "SO(2,1)"),
    (0, -1): (GeometryName.MINKOWSKIAN, None, "ISO(1,1)"),
    (-1, -1): (GeometryName.DOUBLY_HYPERBOLIC, "de Sitter", "SO(2,1)"),
}

# Table-reading order: k2 = +, 0, - rows; k1 = +, 0, - inside each row.
NORMALIZED_PAIRS: tuple[KappaPair, ...] = tuple(
    KappaPair(float(s1), float(s2))
    for s2 in (1, 0, -1)
    for s1 in (1, 0, -1)
)


def _one_parameter_subgroup(kappa: float) -> str:
    if kappa > 0.0:
        return "SO(2)"
    if kappa < 0.0:
        return "SO(1,1)"
    return "R"


def classify(kp: KappaPair) -> GeometryLabel:
    """Geometry, motion group and isotropy subgroups for the sign pattern of kp.

    Invariant under independent positive rescalings of k1 and k2.
    """
    name, kin, group = _CLASSIFICATION[kp.signs()]
    return GeometryLabel(
        name=name,
        kinematical_name=kin,
        group_name=group,
        h0=_one_parameter_subgroup(kp.k2),
        h01=_one_parameter_subgroup(kp.k1),
        h02=_one_parameter_subgroup(kp.k12),
    )


def kappa_from_kinematics(lam: float, c: float) -> KappaPair:
    """Curvature labels of the kinematical algebra with cosmological constant
    lam and speed parameter c: (k1, k2) = (-lam, -1/c**2).

    c = math.inf encodes the nonrelativistic limit k2 = 0; a speed whose
    -1/c**2 is not a finite double, c = 0 among them, is rejected.
    """
    _check_finite("lam", lam)
    if math.isinf(c):
        return KappaPair(-lam, 0.0)
    _check_finite("c", c)
    c2 = c * c
    if c2 == 0.0 or math.isinf(1.0 / c2):
        raise BadSpeedError(f"speed parameter c = {c!r} gives no finite k2 = -1/c**2")
    return KappaPair(-lam, -1.0 / c2)
