"""Acceptance gate: nine go/no-go criteria with stated tolerances.

Each test prints one pass/fail line (bypassing capture so the verdicts
are always visible) and enforces a wall-clock budget.  The reference
values come from tests/helpers.py, a transcription independent of the
library's own check tables.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ckgeom import (
    BASIS,
    DUALITIES,
    GENERATOR_NAMES,
    Ambient,
    AlgebraElement,
    ChartDomainError,
    CoisotropyVerdict,
    DeformationKind,
    DualityName,
    GroupCoordinates,
    KappaPair,
    ParallelI,
    UndefinedDualityError,
    bialgebra_check,
    bracket,
    casimir_coeffs,
    ck,
    coassociativity_defect,
    cocommutator_map,
    coisotropy_check,
    coords_from_group,
    deformed_relation_defect,
    duality_kappa,
    duality_matrix,
    expm_series,
    first_order_delta,
    from_ambient,
    gaussian_curvature,
    group_from_coords,
    ktrig,
    metric_main,
    metric_matrix,
    mcybe_defect,
    phs_points_bracket,
    rep,
    rmatrix,
    sk,
    sklyanin_numeric,
    to_ambient,
    vk,
)
from ckgeom.group import _one_param
from ckgeom.poisson import _invariant_fields, _sklyanin_closed
from ckgeom.spaces import _fields_of

from helpers import (
    NINE,
    NONDEGENERATE,
    cocomm_first,
    cocomm_second,
    killing_rows,
    parallel1_metric,
    phs_second,
    sklyanin_rows,
)


class Criterion:
    """Times one criterion and emits its verdict line past pytest capture."""

    def __init__(self, capsys, number: int, label: str, budget: float):
        self.capsys = capsys
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        line = f"criterion {self.number} [{self.label}]: {verdict} ({elapsed:.2f}s)"
        if self.capsys is None:
            print(line)
        else:
            with self.capsys.disabled():
                print(line)
        if exc_type is None:
            assert elapsed < self.budget, f"budget {self.budget}s exceeded: {elapsed:.2f}s"
        return False


def interior_point(rng, kp: KappaPair, frac=0.3) -> ParallelI:
    def bound(label):
        if label > 1e-12:
            return frac * math.pi / math.sqrt(label)
        return 1.0

    return ParallelI(
        rng.uniform(-bound(kp.k1), bound(kp.k1)),
        rng.uniform(-bound(kp.k12), bound(kp.k12)),
    )


def group_point(rng, kp: KappaPair, frac=0.35) -> GroupCoordinates:
    def bound(label):
        if label > 1e-12:
            return frac * math.pi / math.sqrt(label)
        return 1.0

    return GroupCoordinates(
        rng.uniform(-bound(kp.k1), bound(kp.k1)),
        rng.uniform(-bound(kp.k12), bound(kp.k12)),
        rng.uniform(-bound(kp.k2), bound(kp.k2)),
    )


def test_criterion_1_trigonometry(capsys):
    with Criterion(capsys, 1, "trigonometric identities", 1.0):
        kappas = (-1.0, -0.5, 0.0, 0.5, 1.0)
        xs = np.linspace(-3.0, 3.0, 61)
        h = 1e-6
        for kappa in kappas:
            for x in xs:
                c, s, v = ck(kappa, x), sk(kappa, x), vk(kappa, x)
                assert abs(c * c + kappa * s * s - 1.0) <= 1e-12
                assert abs(c + kappa * v - 1.0) <= 1e-12
            for x in xs[::6]:
                for y in xs[::10]:
                    add_c = ck(kappa, x + y) - (
                        ck(kappa, x) * ck(kappa, y) - kappa * sk(kappa, x) * sk(kappa, y)
                    )
                    add_s = sk(kappa, x + y) - (
                        sk(kappa, x) * ck(kappa, y) + ck(kappa, x) * sk(kappa, y)
                    )
                    assert abs(add_c) <= 1e-12
                    assert abs(add_s) <= 1e-12
            for x in xs[::4]:
                d_sk = (sk(kappa, x + h) - sk(kappa, x - h)) / (2 * h)
                d_ck = (ck(kappa, x + h) - ck(kappa, x - h)) / (2 * h)
                d_vk = (vk(kappa, x + h) - vk(kappa, x - h)) / (2 * h)
                assert abs(d_sk - ck(kappa, x)) <= 1e-8
                assert abs(d_ck + kappa * sk(kappa, x)) <= 1e-8
                assert abs(d_vk - sk(kappa, x)) <= 1e-8


def test_criterion_2_lie_algebra(capsys):
    with Criterion(capsys, 2, "brackets, Jacobi, Casimir", 1.0):
        rng = np.random.default_rng(2)
        for kp in NINE:
            for _ in range(20):
                x = AlgebraElement(*rng.uniform(-2, 2, 3))
                y = AlgebraElement(*rng.uniform(-2, 2, 3))
                z = AlgebraElement(*rng.uniform(-2, 2, 3))
                total = (
                    bracket(kp, x, bracket(kp, y, z)).as_array()
                    + bracket(kp, y, bracket(kp, z, x)).as_array()
                    + bracket(kp, z, bracket(kp, x, y)).as_array()
                )
                assert np.max(np.abs(total)) <= 1e-13
            c2, c1, c0 = casimir_coeffs(kp)
            mats = [rep(kp, b) for b in BASIS]
            cas = c2 * mats[0] @ mats[0] + c1 * mats[1] @ mats[1] + c0 * mats[2] @ mats[2]
            for m in mats:
                assert np.max(np.abs(cas @ m - m @ cas)) <= 1e-12


def test_criterion_3_group_exponentials(capsys):
    with Criterion(capsys, 3, "exponentials and group invariants", 5.0):
        rng = np.random.default_rng(3)
        for kp in NINE:
            for gen, base in zip(GENERATOR_NAMES, BASIS):
                for t in np.linspace(-2.0, 2.0, 9):
                    closed = _one_param(kp, gen, float(t), ktrig)
                    series = expm_series(float(t) * rep(kp, base))
                    assert np.max(np.abs(closed - series)) <= 1e-12
            I = metric_matrix(kp)
            for _ in range(100):
                gc = group_point(rng, kp)
                g = group_from_coords(kp, gc)
                assert np.max(np.abs(g.m.T @ I @ g.m - I)) <= 1e-12
                back = coords_from_group(kp, g)
                defect = max(
                    abs(back.a1 - gc.a1), abs(back.a2 - gc.a2), abs(back.xi - gc.xi)
                )
                assert defect <= 1e-10


def test_criterion_4_metrics_curvature_symmetries(capsys):
    with Criterion(capsys, 4, "metric table, curvature, Killing flows", 30.0):
        rng = np.random.default_rng(4)
        for kp in NINE:
            for _ in range(20):
                p = interior_point(rng, kp)
                m = metric_main(kp, p)
                g11, g12, g22 = parallel1_metric(kp, p.a1, p.a2)
                assert abs(m.g11 - g11) <= 1e-12
                assert abs(m.g12 - g12) <= 1e-12
                assert abs(m.g22 - g22) <= 1e-12
                got = _fields_of(kp, p, ktrig)
                want = killing_rows(kp, p.a1, p.a2)
                for gvec, wvec in zip(got, want):
                    assert np.max(np.abs(gvec - np.array(wvec))) <= 1e-12
        for kp in NONDEGENERATE:
            for _ in range(3):
                p = interior_point(rng, kp, frac=0.25)
                assert abs(gaussian_curvature(kp, p) - kp.k1) <= 1e-6

        def metric_matrix_at(kp, p):
            m = metric_main(kp, p)
            return np.array([[m.g11, m.g12], [m.g12, m.g22]])

        def flow(kp, mat, p):
            s = to_ambient(kp, p).as_array()
            q = from_ambient(kp, Ambient(*(mat @ s)), "parallel1")
            return np.array([q.a1, q.a2])

        h = 1e-6
        for kp in NINE:
            for base in BASIS:
                for t in (0.1, 0.3):
                    mat = expm_series(-t * rep(kp, base))
                    done = 0
                    while done < 5:
                        p = interior_point(rng, kp, frac=0.2)
                        try:
                            jac = np.zeros((2, 2))
                            fp = flow(kp, mat, p)
                            for col, (da, db) in enumerate(((h, 0.0), (0.0, h))):
                                plus = flow(kp, mat, ParallelI(p.a1 + da, p.a2 + db))
                                minus = flow(kp, mat, ParallelI(p.a1 - da, p.a2 - db))
                                jac[:, col] = (plus - minus) / (2 * h)
                            target = metric_matrix_at(kp, ParallelI(*fp))
                            pulled = jac.T @ target @ jac
                            assert np.max(np.abs(pulled - metric_matrix_at(kp, p))) <= 1e-6
                            done += 1
                        except ChartDomainError:
                            continue


def test_criterion_5_dualities(capsys):
    with Criterion(capsys, 5, "duality morphisms and orbits", 1.0):
        rng = np.random.default_rng(5)
        undefined = 0
        for name in DUALITIES:
            for kp in NINE:
                try:
                    kpd = duality_kappa(name, kp)
                    m = duality_matrix(name, kp)
                except UndefinedDualityError:
                    undefined += 1
                    continue
                for _ in range(8):
                    x = AlgebraElement(*rng.uniform(-2, 2, 3))
                    y = AlgebraElement(*rng.uniform(-2, 2, 3))
                    lhs = m @ bracket(kpd, x, y).as_array()
                    rhs = bracket(
                        kp,
                        AlgebraElement(*(m @ x.as_array())),
                        AlgebraElement(*(m @ y.as_array())),
                    ).as_array()
                    assert np.array_equal(lhs, rhs)
        assert undefined > 0
        for kp in NINE:
            m1 = duality_matrix(DualityName.D0, kp)
            m2 = duality_matrix(DualityName.D0, duality_kappa(DualityName.D0, kp))
            assert np.array_equal(m1 @ m2, np.eye(3))
        sphere = KappaPair(1.0, 1.0)
        for name in DUALITIES:
            assert duality_kappa(name, sphere) == sphere
        assert duality_kappa(DualityName.D2, KappaPair(1.0, -1.0)) == KappaPair(-1.0, -1.0)
        assert duality_kappa(DualityName.D2, KappaPair(-1.0, -1.0)) == KappaPair(1.0, -1.0)
        with pytest.raises(UndefinedDualityError):
            duality_matrix(DualityName.D1, KappaPair(0.0, 1.0))


def test_criterion_6_bialgebra(capsys):
    with Criterion(capsys, 6, "cocommutators and bialgebra structure", 1.0):
        z = 0.1
        for kp in NINE:
            for kind in DeformationKind:
                r = rmatrix(kind, z)
                cm = cocommutator_map(kp, r)
                table = cocomm_first if kind is DeformationKind.FIRST_KIND else cocomm_second
                for idx, gen in enumerate(GENERATOR_NAMES):
                    want = z * np.array(table(kp, gen))
                    assert np.array_equal(cm[idx], want)
                cocycle, jacobi, f = bialgebra_check(kp, cm)
                assert cocycle < 1e-13
                assert jacobi < 1e-13
                assert mcybe_defect(kp, r) < 1e-13
                if kind is DeformationKind.FIRST_KIND:
                    zk2 = z * kp.k2
                    assert np.allclose(f[0, 1], [0, zk2, 0], atol=1e-15)
                    assert np.allclose(f[0, 2], [0, 0, zk2], atol=1e-15)
                    assert np.allclose(f[1, 2], [0, 0, 0], atol=1e-15)
            cm = cocommutator_map(kp, rmatrix(DeformationKind.FIRST_KIND, z))
            assert coisotropy_check(kp, cm, "J01") is CoisotropyVerdict.POISSON_SUBGROUP
            if kp.k2 != 0.0:
                assert coisotropy_check(kp, cm, "J02") is CoisotropyVerdict.COISOTROPIC
                assert coisotropy_check(kp, cm, "J12") is CoisotropyVerdict.COISOTROPIC


def test_criterion_7_sklyanin(capsys):
    with Criterion(capsys, 7, "Sklyanin brackets and quotient brackets", 60.0):
        z = 0.1
        rng = np.random.default_rng(7)
        r = rmatrix(DeformationKind.FIRST_KIND, z)
        pairs = ((0, 1), (0, 2), (1, 2))
        for kp in NINE:
            for _ in range(50):
                x = group_point(rng, kp).as_array()
                closed = _sklyanin_closed(kp, z, x, ktrig)
                numeric = sklyanin_numeric(r, _invariant_fields(kp, x, ktrig))
                assert np.abs(closed - numeric).max() <= 1e-6
        for kp in NONDEGENERATE:
            for _ in range(20):
                x = group_point(rng, kp).as_array()
                want = sklyanin_rows(kp, z, *x)
                closed = _sklyanin_closed(kp, z, x, ktrig)
                for pair, w in zip(pairs, want):
                    assert abs(closed[pair] - w) <= 1e-12
        for k1 in (1.0, 0.0, -1.0):
            kp = KappaPair(k1, 0.0)
            x = group_point(rng, kp).as_array()
            assert (_sklyanin_closed(kp, z, x, ktrig) == 0.0).all()
        for kp in NINE:
            for _ in range(10):
                a1 = rng.uniform(-0.6, 0.6)
                a2 = rng.uniform(-0.6, 0.6)
                got = phs_points_bracket(kp, z, DeformationKind.SECOND_KIND, a1, a2)
                assert abs(got - phs_second(kp, z, a1)) <= 1e-12


def test_criterion_8_quantum_deformation(capsys):
    with Criterion(capsys, 8, "deformed relations and coproducts", 60.0):
        for kp in NINE:
            for z in (0.1, 0.3):
                assert deformed_relation_defect(kp, z) < 1e-9
                assert coassociativity_defect(kp, z) < 1e-10
            for z in (1e-3, 1e-4):
                got = first_order_delta(kp, z)
                want = cocommutator_map(kp, rmatrix(DeformationKind.FIRST_KIND, z))
                for idx in range(3):
                    assert np.abs(got[idx] - want[idx]).max() < 10.0 * z * z


def test_criterion_9_cli_sweep(capsys):
    with Criterion(capsys, 9, "verification sweep via the CLI", 120.0):
        cmd = [
            sys.executable,
            "-m",
            "ckgeom",
            "sweep-all",
            "--grid",
            "normalized9",
            "--z",
            "0.1",
        ]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0
        assert first.stdout == second.stdout
        doc = json.loads(first.stdout)
        assert doc["schema"] == 2
        assert doc["passed"] is True
        suites_seen = {c["suite"] for c in doc["checks"]}
        assert set(doc["suites"]) == suites_seen
        for suite, row in doc["suites"].items():
            assert "max_defect" in row and "passed" in row
