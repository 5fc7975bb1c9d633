"""Self-verification sweep: registry consistency, determinism, config guards."""

import inspect
import json
import math
from pathlib import Path

import pytest

from ckgeom import (
    CHECK_NAMES,
    DEFAULT_TOLERANCES,
    ConfigError,
    KappaPair,
    SweepConfig,
    kappa_grid_from_name,
    run_all,
    run_check,
    run_suite,
    suite_summary,
)
from ckgeom import checks
from ckgeom.checks import SUITE_NAMES
from ckgeom.errors import OffSurfaceError

# each geometry check's result at seeds 0-7, as the sample-by-sample checks gave it
GEOMETRY_GOLDEN = Path(__file__).parent / "golden" / "geometry_suite_seeds0-7.json"

LIGHT = SweepConfig(
    kappa_grid=kappa_grid_from_name("normalized9"),
    z_values=(0.1,),
    sample_count=4,
    seed=7,
)


def test_registry_and_tolerances_agree():
    assert set(DEFAULT_TOLERANCES) == set(CHECK_NAMES)
    assert len(CHECK_NAMES) == len(set(CHECK_NAMES))


def test_every_check_is_a_generator():
    assert [name for _, name, fn in checks._REGISTRY if not inspect.isgeneratorfunction(fn)] == []


def test_reduce_keeps_the_first_worst_sample_and_counts_every_yield():
    def reduce(*pairs):
        r = checks._reduce("trig", "trig_identity", iter(pairs))
        return r.max_defect, r.detail, r.samples, r.passed

    assert reduce() == (0.0, "", 0, True)
    assert reduce((0.0, "zero"), (1e-12, "at tol")) == (1e-12, "at tol", 2, True)
    assert reduce((0.0, "zero"), (2.0, "first"), (1.0, "less"), (2.0, "tie")) == (2.0, "first", 4, False)
    assert reduce((1.0, "one"), (math.nan, "nan"), (math.inf, "inf")) == (math.inf, "nan", 3, False)


def test_reduce_ends_a_check_at_an_escaping_geometry_error():
    def defects(error):
        yield 0.5, "first"
        raise error

    r = checks._reduce("trig", "trig_identity", defects(OffSurfaceError("misses the quadric")))
    assert (r.max_defect, r.detail, r.samples, r.passed) == (
        math.inf, "OffSurfaceError: misses the quadric", 1, False
    )
    # only geometry errors are results; anything else is a bug and propagates
    with pytest.raises(ValueError):
        checks._reduce("trig", "trig_identity", defects(ValueError("bug")))


def test_quantum_overflow_is_a_failing_row():
    cfg = SweepConfig(kappa_grid=(KappaPair(1.0, 1.0),), z_values=(1e308,))
    result = run_check("quantum_relations", cfg)
    assert not result.passed
    assert result.max_defect == math.inf
    assert result.samples == 1


def test_a_nan_quantum_defect_fails_its_check():
    # the commutators of the images overflow to nan in two of the three
    # relations; the coassociativity defect stays at rounding level
    cfg = SweepConfig(kappa_grid=(KappaPair(1e150, -1e150),), z_values=(1e-300,))
    relations = run_check("quantum_relations", cfg)
    assert (relations.max_defect, relations.passed, relations.samples) == (math.inf, False, 1)
    assert relations.detail == "z=1e-300 kappa=(1e+150,-1e+150)"
    assert run_check("quantum_coassociativity", cfg).passed


def test_full_run_passes_on_light_config():
    results = run_all(LIGHT)
    assert len(results) == len(CHECK_NAMES)
    failing = [r.name for r in results if not r.passed]
    assert failing == []


def test_runs_are_deterministic():
    a = run_all(LIGHT)
    b = run_all(LIGHT)
    assert [(r.name, r.max_defect, r.detail) for r in a] == [
        (r.name, r.max_defect, r.detail) for r in b
    ]


def test_check_results_are_order_independent():
    full = {r.name: r for r in run_all(LIGHT)}
    in_suites = {r.name: r for suite in SUITE_NAMES for r in run_suite(suite, LIGHT)}
    assert list(full) == list(in_suites) == list(CHECK_NAMES)

    def key(r):
        return r.max_defect, r.samples, r.detail

    for name in CHECK_NAMES:
        assert key(run_check(name, LIGHT)) == key(in_suites[name]) == key(full[name]), name


@pytest.mark.parametrize("seed", range(32))
def test_sweep_passes_for_every_seed(seed):
    failing = [(r.name, r.max_defect, r.detail) for r in run_all(SweepConfig(seed=seed)) if not r.passed]
    assert failing == []


@pytest.mark.parametrize("seed", range(8))
def test_geometry_suite_matches_its_pinned_results(seed):
    want = json.loads(GEOMETRY_GOLDEN.read_text())[str(seed)]
    got = {
        r.name: {"max_defect": repr(r.max_defect), "samples": r.samples, "detail": r.detail, "passed": r.passed}
        for r in run_suite("geometry", SweepConfig(seed=seed))
    }
    assert got == want


def test_suite_summary_rolls_up():
    results = run_suite("trig", LIGHT)
    summary = suite_summary(results)
    assert "trig" in summary
    assert summary["trig"]["max_defect"] == max(r.max_defect for r in results)
    assert summary["trig"]["passed"] is True


def test_tolerance_override_can_fail_a_check(monkeypatch):
    monkeypatch.setitem(DEFAULT_TOLERANCES, "geometry_curvature", 1e-18)
    cfg = SweepConfig(kappa_grid=(KappaPair(1.0, 1.0),), sample_count=4, seed=1)
    result = run_check("geometry_curvature", cfg)
    assert not result.passed
    assert result.tolerance == 1e-18


def test_grid_name_guard():
    assert len(kappa_grid_from_name("normalized9")) == 9
    with pytest.raises(ConfigError):
        kappa_grid_from_name("everything")


def test_config_validation_guards():
    with pytest.raises(ConfigError):
        SweepConfig(kappa_grid=()).validated()
    with pytest.raises(ConfigError):
        SweepConfig(kappa_grid=LIGHT.kappa_grid, z_values=(0.0,)).validated()
    with pytest.raises(ConfigError):
        SweepConfig(kappa_grid=LIGHT.kappa_grid, sample_count=0).validated()


def test_validated_sorts_the_grid():
    cfg = SweepConfig(
        kappa_grid=(KappaPair(1.0, 1.0), KappaPair(-1.0, 0.0)), seed=0
    ).validated()
    assert cfg.kappa_grid[0].k1 <= cfg.kappa_grid[1].k1


def test_unknown_check_name_raises():
    with pytest.raises(ConfigError):
        run_check("not_a_check", LIGHT)
