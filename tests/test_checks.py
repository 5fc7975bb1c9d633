"""Self-verification sweep: registry consistency, determinism, config guards."""

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
from ckgeom.checks import SUITE_NAMES

LIGHT = SweepConfig(
    kappa_grid=kappa_grid_from_name("normalized9"),
    z_values=(0.1,),
    sample_count=4,
    seed=7,
)


def test_registry_and_tolerances_agree():
    assert set(DEFAULT_TOLERANCES) == set(CHECK_NAMES)
    assert len(CHECK_NAMES) == len(set(CHECK_NAMES))


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
def test_laplacian_oracle_passes_for_every_seed(seed):
    assert run_check("geometry_laplacian", SweepConfig(seed=seed)).passed


@pytest.mark.parametrize("seed", range(32))
def test_sweep_passes_for_every_seed(seed):
    failing = [(r.name, r.max_defect, r.detail) for r in run_all(SweepConfig(seed=seed)) if not r.passed]
    assert failing == []


def test_suite_summary_rolls_up():
    results = run_suite("trig", LIGHT)
    summary = suite_summary(results)
    assert "trig" in summary
    assert summary["trig"]["max_defect"] == max(r.max_defect for r in results)
    assert summary["trig"]["passed"] is True


def test_tolerance_override_can_fail_a_check():
    cfg = SweepConfig(
        kappa_grid=(KappaPair(1.0, 1.0),),
        sample_count=4,
        seed=1,
        tolerances={"geometry_curvature": 1e-18},
    )
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
    with pytest.raises(ConfigError):
        SweepConfig(kappa_grid=LIGHT.kappa_grid, tolerances={"nope": 1.0}).validated()
    with pytest.raises(ConfigError):
        SweepConfig(
            kappa_grid=LIGHT.kappa_grid, tolerances={"trig_identity": -1.0}
        ).validated()


def test_validated_sorts_the_grid():
    cfg = SweepConfig(
        kappa_grid=(KappaPair(1.0, 1.0), KappaPair(-1.0, 0.0)), seed=0
    ).validated()
    assert cfg.kappa_grid[0].k1 <= cfg.kappa_grid[1].k1


def test_unknown_check_name_raises():
    with pytest.raises(ConfigError):
        run_check("not_a_check", LIGHT)
