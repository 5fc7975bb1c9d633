"""Shared reference data for the test suite.

Everything here is written from the closed-form expressions using plain
math.* calls, independently of the literal tables the library's check
module carries.  A transcription slip in either copy shows up as a
runtime disagreement, so the two copies guard each other.
"""

from __future__ import annotations

import math

from ckgeom import KappaPair

NINE = tuple(
    KappaPair(float(s1), float(s2)) for s2 in (1, 0, -1) for s1 in (1, 0, -1)
)

NONDEGENERATE = tuple(kp for kp in NINE if kp.k2 != 0.0)

CURVED = tuple(kp for kp in NINE if kp.k1 != 0.0)


def same_error(a, b) -> bool:
    """a and b are exceptions of one type with one message."""
    return type(a) is type(b) and str(a) == str(b)


def ref_ck(kappa: float, x: float) -> float:
    if kappa > 0:
        return math.cos(math.sqrt(kappa) * x)
    if kappa < 0:
        return math.cosh(math.sqrt(-kappa) * x)
    return 1.0


def ref_sk(kappa: float, x: float) -> float:
    if kappa > 0:
        r = math.sqrt(kappa)
        return math.sin(r * x) / r
    if kappa < 0:
        r = math.sqrt(-kappa)
        return math.sinh(r * x) / r
    return x


def ref_tk(kappa: float, x: float) -> float:
    return ref_sk(kappa, x) / ref_ck(kappa, x)


def ref_vk(kappa: float, x: float) -> float:
    if kappa == 0.0:
        return x * x / 2.0
    return (1.0 - ref_ck(kappa, x)) / kappa


# Line elements of the two standard charts:
#   parallel-I: ds^2 = ck(k1 k2, a2)^2 da1^2 + k2 da2^2
#   polar:      ds^2 = da1^2 + k2 sk(k1, a1)^2 da2^2


def parallel1_metric(kp: KappaPair, a1: float, a2: float) -> tuple[float, float, float]:
    c = ref_ck(kp.k1 * kp.k2, a2)
    return (c * c, 0.0, kp.k2)


def polar_metric(kp: KappaPair, r: float, phi: float) -> tuple[float, float, float]:
    s = ref_sk(kp.k1, r)
    return (1.0, 0.0, kp.k2 * s * s)


# Killing vector fields on the parallel-I chart, components written in the
# coordinate frame (d/da1, d/da2); the field of X generates t -> exp(-tX).p.


def killing_rows(kp: KappaPair, a1: float, a2: float):
    k1, k2 = kp.k1, kp.k2
    k12 = k1 * k2
    j01 = (-1.0, 0.0)
    j02 = (-k12 * ref_sk(k1, a1) * ref_tk(k12, a2), -ref_ck(k1, a1))
    j12 = (k2 * ref_ck(k1, a1) * ref_tk(k12, a2), -ref_sk(k1, a1))
    return j01, j02, j12


# Classification: sign pair -> (name, motion group, (h0, h01, h02)).
CLASSIFICATION = {
    (1, 1): ("spherical", "SO(3)", ("SO(2)", "SO(2)", "SO(2)")),
    (0, 1): ("euclidean", "ISO(2)", ("SO(2)", "R", "R")),
    (-1, 1): ("hyperbolic", "SO(2,1)", ("SO(2)", "SO(1,1)", "SO(1,1)")),
    (1, 0): ("co-euclidean", "ISO(2)", ("R", "SO(2)", "R")),
    (0, 0): ("galilean", "IISO(1)", ("R", "R", "R")),
    (-1, 0): ("co-minkowskian", "ISO(1,1)", ("R", "SO(1,1)", "R")),
    (1, -1): ("co-hyperbolic", "SO(2,1)", ("SO(1,1)", "SO(2)", "SO(1,1)")),
    (0, -1): ("minkowskian", "ISO(1,1)", ("SO(1,1)", "R", "R")),
    (-1, -1): ("doubly hyperbolic", "SO(2,1)", ("SO(1,1)", "SO(1,1)", "SO(2)")),
}

KINEMATICAL = {
    (1, 0): "oscillating Newton-Hooke",
    (-1, 0): "expanding Newton-Hooke",
    (1, -1): "anti-de Sitter",
    (-1, -1): "de Sitter",
}


# Fundamental first-kind Sklyanin brackets on the group coordinates,
# ordered ({a1,a2}, {a1,xi}, {a2,xi}); defined whenever k2 != 0.


def sklyanin_rows(kp: KappaPair, z: float, a1: float, a2: float, xi: float):
    k2 = kp.k2
    k12 = kp.k1 * k2
    b12 = z * k2 * ref_tk(k12, a2)
    b1x = z * k2 * ref_sk(k2, xi) / ref_ck(k12, a2)
    b2x = -z * (ref_ck(k12, a2) * ref_ck(k2, xi) - 1.0) / ref_ck(k12, a2)
    return b12, b1x, b2x


def phs_first(kp: KappaPair, z: float, a2: float) -> float:
    return z * kp.k2 * ref_tk(kp.k1 * kp.k2, a2)


def phs_second(kp: KappaPair, z: float, a1: float) -> float:
    return z * ref_sk(kp.k1, a1)


def casimir_coefficients(kp: KappaPair) -> tuple[float, float, float]:
    return (kp.k2, 1.0, kp.k1)


# Structure constants: [J12, J01] = J02, [J12, J02] = -k2 J01,
# [J01, J02] = k1 J12, in coefficient order (c01, c02, c12).


def bracket_coeffs(kp: KappaPair, name_x: str, name_y: str) -> tuple[float, float, float]:
    table = {
        ("J12", "J01"): (0.0, 1.0, 0.0),
        ("J12", "J02"): (-kp.k2, 0.0, 0.0),
        ("J01", "J02"): (0.0, 0.0, kp.k1),
    }
    if (name_x, name_y) in table:
        return table[(name_x, name_y)]
    if (name_y, name_x) in table:
        c = table[(name_y, name_x)]
        return (-c[0], -c[1], -c[2])
    return (0.0, 0.0, 0.0)


# First-order cocommutators divided by z, as wedge coefficients in the
# ordered basis (J01^J02, J01^J12, J02^J12).


def cocomm_first(kp: KappaPair, gen: str) -> tuple[float, float, float]:
    k2 = kp.k2
    return {
        "J01": (0.0, 0.0, 0.0),
        "J02": (k2, 0.0, 0.0),
        "J12": (0.0, k2, 0.0),
    }[gen]


def cocomm_second(kp: KappaPair, gen: str) -> tuple[float, float, float]:
    return {
        "J01": (1.0, 0.0, 0.0),
        "J02": (0.0, 0.0, 0.0),
        "J12": (0.0, 0.0, -1.0),
    }[gen]
