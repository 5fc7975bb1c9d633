"""The public functions hold the floating-point policy (see ktrig).

Every public function that takes curvature labels is called at labels
where stacked arithmetic overflows or the metric degenerates, with every
warning an error.  Each must return or raise one of its documented errors,
a GeometryError or the ValueError of a non-finite label, and numpy may
warn of nothing: a caller of the public API holds no policy of its own.
"""

import inspect
import operator
import warnings

import numpy as np
import pytest

import ckgeom
from ckgeom import (
    BASIS,
    CHART_NAMES,
    DUALITIES,
    GENERATOR_NAMES,
    Ambient,
    DeformationKind,
    GeometryError,
    GroupCoordinates,
    GroupElement,
    KappaPair,
    ParallelI,
    ParallelII,
    Polar,
)

# overflowing, underflowing and degenerate label pairs
LABELS = [(1e200, 1e200), (-1e300, 1.0), (1.0, -1e300), (1e160, -1e160), (-1.0, 1e-200), (1.0, 0.0), (0.0, 0.0)]
POINTS = [ParallelI(0.3, 0.2), ParallelII(0.3, -0.2), Polar(0.3, 0.2), Ambient(1.0, 0.0, 0.0)]
COORDS = [0.3, -2.0, 1e3]
ZS = [0.1, 1e-3, 1e200]
KINDS = tuple(DeformationKind)
# the identity, and a finite matrix whose products overflow
MATRICES = [np.eye(3), np.array([[2.0, 1e200, 0.0], [1e200, 2.0, 0.0], [0.0, 0.0, 1.0]])]


def _labels(kp):
    return kp.k1, kp.k2, kp.k12


def _rs():
    return [ckgeom.rmatrix(kind, z) for kind in KINDS for z in ZS]


def _images(kp):
    return [ckgeom.cocommutator_map(kp, r) for r in _rs()]


def _elements(kp):
    return [GroupElement(m, kp) for m in MATRICES]


# name -> the argument tuples of the calls of that public function at the
# label pair kp
ARGS = {
    **dict.fromkeys(
        ("ck", "ck_array", "sk", "sk_array", "tk", "vk"), lambda kp: [(k, x) for k in _labels(kp) for x in COORDS]
    ),
    "kinv": lambda kp: [(k, s, c) for k in _labels(kp) for s, c in ((0.0, 1.0), (1e200, 1e200), (0.5, -1e-300))],
    "kinv_array": lambda kp: [(k, [0.0, 1e200, 0.5], [1.0, 1e200, -1e-300]) for k in _labels(kp)],
    "half_period": lambda kp: [(k,) for k in _labels(kp)],
    "bracket": lambda kp: [(kp, x, y) for x in BASIS for y in BASIS],
    "casimir_coeffs": lambda kp: [(kp,)],
    "classify": lambda kp: [(kp,)],
    "structure_tensor": lambda kp: [(kp,)],
    "kappa_from_kinematics": lambda kp: [(kp.k1, kp.k2), (kp.k2, kp.k1)],
    "apply_duality": lambda kp: [(name, kp, x) for name in DUALITIES for x in BASIS],
    "duality_kappa": lambda kp: [(name, kp) for name in DUALITIES],
    "duality_matrix": lambda kp: [(name, kp) for name in DUALITIES],
    "metric_matrix": lambda kp: [(kp,)],
    "rep_basis": lambda kp: [(kp,)],
    "rep": lambda kp: [(kp, x) for x in (*BASIS, np.ones((2, 3)))],
    "group_from_coords": lambda kp: [(kp, GroupCoordinates(*x)) for x in ((0.3, 0.2, 0.1), (2.0, -2.0, 1e3))],
    "coords_from_group": lambda kp: [(kp, g) for g in _elements(kp)],
    "GroupElement.__matmul__": lambda kp: [(g, h) for g in _elements(kp) for h in _elements(kp)],
    "cocommutator_map": lambda kp: [(kp, r) for r in _rs()],
    "bialgebra_check": lambda kp: [(kp, images) for images in _images(kp)],
    "coisotropy_check": lambda kp: [(kp, images, h) for images in _images(kp) for h in GENERATOR_NAMES],
    "schouten": lambda kp: [(kp, r) for r in _rs()],
    "mcybe_defect": lambda kp: [(kp, r) for r in _rs()],
    "phs_points_bracket": lambda kp: [(kp, z, kind, a, a) for z in ZS for kind in KINDS for a in COORDS],
    "coproduct_classical": lambda kp: [(kp, gen) for gen in GENERATOR_NAMES],
    "deformed_relation_defect": lambda kp: [(kp, z) for z in ZS],
    "coassociativity_defect": lambda kp: [(kp, z) for z in ZS],
    "first_order_delta": lambda kp: [(kp, z) for z in ZS],
    "to_ambient": lambda kp: [(kp, p) for p in POINTS],
    "to_ambient_batch": lambda kp: [(kp, chart, COORDS, 0.2) for chart in CHART_NAMES[1:]],
    "from_ambient": lambda kp: [
        (kp, s, target) for s in (POINTS[3], Ambient(1e200, 1e200, 1e-300)) for target in CHART_NAMES
    ],
    "convert": lambda kp: [(kp, p, target) for p in POINTS for target in CHART_NAMES],
    "metric_main": lambda kp: [(kp, p) for p in POINTS],
    "metric_subsidiary": lambda kp: [(kp, p) for p in POINTS],
    "gaussian_curvature": lambda kp: [(kp, p) for p in POINTS],
    "laplace_beltrami_apply": lambda kp: [(kp, lambda a1, a2: a1 * a2, p) for p in POINTS],
}


def _takes_labels(obj) -> bool:
    return inspect.isfunction(obj) and not {"kp", "kappa"}.isdisjoint(inspect.signature(obj).parameters)


def test_every_public_function_that_takes_labels_is_called():
    public = {name for name in ckgeom.__all__ if _takes_labels(getattr(ckgeom, name))}
    assert public | {"kappa_from_kinematics", "GroupElement.__matmul__"} == set(ARGS)


@pytest.mark.parametrize("name", sorted(ARGS))
def test_a_public_function_returns_or_raises_without_a_warning(name):
    fn = operator.matmul if name == "GroupElement.__matmul__" else getattr(ckgeom, name)
    for k1, k2 in LABELS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args in ARGS[name](KappaPair(k1, k2)):
                try:
                    fn(*args)
                except (GeometryError, ValueError):
                    pass
