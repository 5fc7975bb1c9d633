"""Quantum deformation: coproducts, deformed relations, classical limit."""

import numpy as np
import pytest

from ckgeom import (
    ChartDomainError,
    DeformationDomainError,
    DeformationKind,
    GENERATOR_NAMES,
    KappaPair,
    ProjectionError,
    coassociativity_defect,
    cocommutator_map,
    coproduct_classical,
    deformed_relation_defect,
    first_order_delta,
    ktrig,
    rmatrix,
)
from ckgeom.quantum import _coproduct_images, _deformation_scale

from helpers import NINE

ZS = (0.1, 0.3)


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
@pytest.mark.parametrize("z", ZS)
def test_deformed_relations_close(kp, z):
    assert deformed_relation_defect(kp, z) < 1e-9


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
@pytest.mark.parametrize("z", ZS)
def test_coassociativity(kp, z):
    assert coassociativity_defect(kp, z) < 1e-10


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_primitive_generator(kp):
    # the generator dual to the deformation direction stays primitive
    z = 0.2
    classical = coproduct_classical(kp, "J01")
    with ktrig.quiet():
        deformed = _coproduct_images(kp, z, ktrig)[2][0]
    assert np.max(np.abs(classical - deformed)) < 1e-14


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_coproduct_tends_to_classical(kp):
    # slope of the deviation in z stays bounded, so Delta_z -> Delta_0
    with ktrig.quiet():
        images = _coproduct_images(kp, 1e-3, ktrig)[2]
    for gen, image in zip(GENERATOR_NAMES, images):
        assert np.max(np.abs(image - coproduct_classical(kp, gen))) < 1e-2


@pytest.mark.parametrize("kp", NINE, ids=lambda kp: f"{kp.k1:g},{kp.k2:g}")
def test_first_order_term_is_the_cocommutator(kp):
    for z in (1e-3, 1e-4):
        got = first_order_delta(kp, z)
        want = cocommutator_map(kp, rmatrix(DeformationKind.FIRST_KIND, z))
        for idx in range(3):
            defect = np.abs(got[idx] - want[idx]).max()
            assert defect < 10.0 * z * z


def test_deformation_scale_limits():
    kp = KappaPair(1.0, 1.0)
    with ktrig.quiet():
        assert _deformation_scale(kp, 1e-9, ktrig) == pytest.approx(1.0, abs=1e-9)
        assert _deformation_scale(KappaPair(1.0, 0.0), 0.3, ktrig) == 1.0


def test_deformation_scale_without_a_real_rescaling_is_a_domain_error():
    # sk(1, 4) = sin(4) < 0, so gamma**2 would be negative
    with pytest.raises(DeformationDomainError, match="changes sign"):
        _deformation_scale(KappaPair(1.0, 1.0), 4.0, ktrig)
    # a numpy z prints as a float, as a Python one does
    with pytest.raises(DeformationDomainError, match=r"sk\(1\.0, 4\.0\) changes sign"):
        deformed_relation_defect(KappaPair(1.0, 1.0), np.float64(4.0))


def test_first_order_images_that_overflow_are_a_domain_error():
    # the wedge basis holds products of k1 k2 = 1e300 with k2 = 1e150
    with pytest.raises(ChartDomainError, match="overflows"):
        first_order_delta(KappaPair(1e150, 1e150), 1e-3)


def test_a_first_order_image_off_the_wedge_span_is_a_projection_error():
    # at z = 1e-8 the residual allowed is 100 z**2 + 1e-13, about 1.1e-13;
    # the image of J02 at labels -1e6 leaves about 1e-3
    with pytest.raises(ProjectionError, match="first-order image of J02 misses the wedge span by 9.766e-04"):
        first_order_delta(KappaPair(-1e6, -1e6), 1e-8)


def test_relation_defect_grows_from_zero():
    kp = KappaPair(1.0, 1.0)
    small = deformed_relation_defect(kp, 1e-6)
    assert small < 1e-11
