"""Index-permutation dualities of the geometry family.

Each duality sends the ordered basis (J01, J02, J12) to weighted
permutations of itself and acts on the curvature labels so that the
transformed generators close the same bracket pattern with the new labels.
Two of the six maps need a nonzero label to be defined (the weight would
otherwise collapse a basis direction); applying one of those to a pair
with that label equal to zero raises UndefinedDualityError, as does a map
whose target label k1 * k2 overflows a double.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .algebra import AlgebraElement, KappaPair
from .errors import UndefinedDualityError


class DualityName(Enum):
    D0 = "D0"
    D1 = "D1"
    D2 = "D2"
    D0D1 = "D0D1"
    D0D2 = "D0D2"
    ID = "ID"


DUALITIES: tuple[DualityName, ...] = tuple(DualityName)

# Curvature label whose vanishing makes the map undefined, if any.
RESTRICTIONS = {
    DualityName.D0: None,
    DualityName.D1: "k1",
    DualityName.D2: "k2",
    DualityName.D0D1: "k1",
    DualityName.D0D2: "k2",
    DualityName.ID: None,
}


def _require_defined(name: DualityName, kp: KappaPair) -> None:
    restriction = RESTRICTIONS[name]
    if restriction == "k1" and kp.k1 == 0.0:
        raise UndefinedDualityError(f"{name.value} is undefined at k1 = 0")
    if restriction == "k2" and kp.k2 == 0.0:
        raise UndefinedDualityError(f"{name.value} is undefined at k2 = 0")


def duality_matrix(name: DualityName, kp: KappaPair) -> np.ndarray:
    """Coefficient matrix of the map: column i holds the image of basis i."""
    _require_defined(name, kp)
    k1, k2 = kp.k1, kp.k2
    if name is DualityName.D0:
        # (J01, J02, J12) -> (-J12, -J02, -J01)
        return np.array([[0.0, 0.0, -1.0], [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0]])
    if name is DualityName.D1:
        # (J01, J02, J12) -> (-J01, k1 J12, J02)
        return np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, k1, 0.0]])
    if name is DualityName.D2:
        # (J01, J02, J12) -> (J02, k2 J01, -J12)
        return np.array([[0.0, k2, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    if name is DualityName.D0D1:
        # (J01, J02, J12) -> (-J02, -k1 J12, J01)
        return np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -k1, 0.0]])
    if name is DualityName.D0D2:
        # (J01, J02, J12) -> (J12, -k2 J01, -J02)
        return np.array([[0.0, -k2, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    return np.eye(3)


def duality_kappa(name: DualityName, kp: KappaPair) -> KappaPair:
    """Transformed curvature labels.

    Raises UndefinedDualityError where the map is undefined at kp, and where
    a target label k1 * k2 is not a finite double.
    """
    _require_defined(name, kp)
    k1, k2, k12 = kp.k1, kp.k2, kp.k1 * kp.k2
    labels = {
        DualityName.D0: (k2, k1),
        DualityName.D1: (k1, k12),
        DualityName.D2: (k12, k2),
        DualityName.D0D1: (k12, k1),
        DualityName.D0D2: (k2, k12),
        DualityName.ID: (k1, k2),
    }[name]
    if not all(math.isfinite(k) for k in labels):
        raise UndefinedDualityError(f"{name.value} sends ({k1!r}, {k2!r}) past a finite label: {labels}")
    return KappaPair(*labels)


def apply_duality(
    name: DualityName, kp: KappaPair, x: AlgebraElement
) -> tuple[AlgebraElement, KappaPair]:
    """Image of x under the duality together with the transformed labels."""
    m = duality_matrix(name, kp)
    return AlgebraElement.from_array(m @ x.as_array()), duality_kappa(name, kp)
