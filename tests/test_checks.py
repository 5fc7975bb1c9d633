"""Self-verification sweep: registry consistency, determinism, config guards."""

import inspect
import json
import math
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
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
from ckgeom import checks, ktrig
from ckgeom.checks import SUITE_NAMES
from ckgeom.cli import main
from ckgeom.errors import ChartDomainError, OffSurfaceError

# each geometry check's result at seeds 0-7, as the sample-by-sample checks gave it
GEOMETRY_GOLDEN = Path(__file__).parent / "golden" / "geometry_suite_seeds0-7.json"
# every check's [repr(max_defect), samples, detail] at seeds 0-31, as the
# checks that yielded one (defect, where) pair per sample gave it
CHECKS_GOLDEN = Path(__file__).parent / "golden" / "checks_seeds0-31.json"
# every check's [repr(max_defect), samples, detail] at ten label pairs off
# normalized9, keyed "k1,k2", each run as its own grid with 5 samples at
# seed 1: there most error details come from a flagged sample evaluated again
OFF_GRID_GOLDEN = Path(__file__).parent / "golden" / "checks_offgrid_samples5_seed1.json"

LIGHT = SweepConfig(
    kappa_grid=kappa_grid_from_name("normalized9"),
    z_values=(0.1,),
    sample_count=4,
    seed=7,
)


def test_registry_and_tolerances_agree():
    assert set(DEFAULT_TOLERANCES) == set(CHECK_NAMES)
    assert len(CHECK_NAMES) == len(set(CHECK_NAMES))


def test_every_check_yields_blocks():
    # each block is a float array with a name for its entries, which the
    # reducer reads while the check waits at that block
    cfg = LIGHT.validated()
    for idx, (_, name, fn) in enumerate(checks._REGISTRY):
        blocks = fn(cfg, np.random.default_rng([cfg.seed, idx]))
        assert inspect.isgenerator(blocks), name
        # the check body runs under the policy _reduce holds (see ktrig)
        with ktrig.quiet():
            for defects, at in blocks:
                assert isinstance(defects, np.ndarray) and defects.dtype == np.float64, name
                if defects.size:
                    assert isinstance(at(defects.size - 1), str), name


def blocks_of(*blocks):
    """Blocks of the given (defects, names) pairs."""
    return ((np.array(defects, dtype=float), names.__getitem__) for defects, names in blocks)


def test_reduce_keeps_the_first_worst_entry_and_counts_every_entry():
    def reduce(*blocks):
        r = checks._reduce("trig", "trig_identity", blocks_of(*blocks))
        return r.max_defect, r.detail, r.samples, r.passed

    assert reduce() == (0.0, "", 0, True)
    assert reduce(([0.0, 0.0], ["a", "b"])) == (0.0, "", 2, True)
    assert reduce(([0.0, 1e-12], ["zero", "at tol"])) == (1e-12, "at tol", 2, True)
    # a tie keeps the first worst entry, in a block and across blocks
    assert reduce(([0.0, 2.0, 1.0, 2.0], ["zero", "first", "less", "tie"])) == (2.0, "first", 4, False)
    assert reduce(([2.0], ["first"]), ([], []), ([1.0, 2.0], ["less", "tie"])) == (2.0, "first", 3, False)
    assert reduce(([1.0], ["one"]), ([0.5, 3.0], ["half", "three"])) == (3.0, "three", 3, False)
    # nan counts as inf
    assert reduce(([1.0, math.nan, math.inf], ["one", "nan", "inf"])) == (math.inf, "nan", 3, False)
    assert reduce(([1.0, math.inf, math.nan], ["one", "inf", "nan"])) == (math.inf, "inf", 3, False)
    assert reduce(([math.inf], ["inf"]), ([math.nan], ["nan"])) == (math.inf, "inf", 2, False)


def test_reduce_names_only_the_worst_entry():
    named = []

    def name(i):
        named.append(i)
        return f"entry {i}"

    blocks = [(np.array([0.0, 3.0, 1.0]), name), (np.array([2.0]), name), (np.array([5.0, 4.0]), name)]
    r = checks._reduce("trig", "trig_identity", iter(blocks))
    assert (r.max_defect, r.detail, r.samples) == (5.0, "entry 0", 6)
    assert named == [1, 0]


def test_reduce_ends_a_check_at_an_escaping_geometry_error():
    def defects(error):
        yield from blocks_of(([0.5, 0.25], ["first", "second"]))
        raise error

    r = checks._reduce("trig", "trig_identity", defects(OffSurfaceError("misses the quadric")))
    assert (r.max_defect, r.detail, r.samples, r.passed) == (
        math.inf, "OffSurfaceError: misses the quadric", 2, False
    )
    # only geometry errors are results; anything else is a bug and propagates
    with pytest.raises(ValueError):
        checks._reduce("trig", "trig_identity", defects(ValueError("bug")))


def test_reduce_reads_an_overflow_in_a_check_body_as_an_inf_defect():
    # the body states no floating-point policy: the reducer's holds
    def overflowing():
        big = np.array([1e308, 1.0])
        yield big * 10.0, "entry {}".format
        yield np.abs(big * 10.0 - big * 10.0), "difference {}".format

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = checks._reduce("trig", "trig_identity", overflowing())
    assert (r.max_defect, r.detail, r.samples, r.passed) == (math.inf, "entry 0", 4, False)


def test_flagged_entries_are_evaluated_again_in_order():
    visits = []

    def again(fail):
        def evaluate(j):
            visits.append(j)
            if j in fail:
                raise fail[j]

        return evaluate

    def reduce(*stages):
        visits.clear()
        # two samples of two entries each
        blocks = checks._flagged(np.array([[1.0, 5.0], [2.0, 3.0]]), "entry {}".format, *stages)
        r = checks._reduce("trig", "trig_identity", blocks)
        return r.max_defect, r.detail, r.samples

    skip, both = ChartDomainError("off the chart"), np.array([True, True])
    # a stage the loop skips on drops its entry; a flagged sample that
    # evaluates keeps its stack value
    dropping = checks._Stage(both, again({0: skip}), 1, ChartDomainError)
    assert reduce(dropping) == (3.0, "entry 3", 3)
    assert visits == [0, 1]
    # a dropped entry runs none of its later stages; a stage with no replay
    # drops entries without a visit
    later = checks._Stage(both, again({}), 1)
    assert reduce(dropping, later, checks._Stage(np.array([False, True]), None)) == (3.0, "entry 3", 2)
    assert visits == [0, 1, 1]
    # any other error ends the check after the entries before it
    assert reduce(checks._Stage(both, again({1: skip}), 1)) == (math.inf, "ChartDomainError: off the chart", 3)
    first = checks._Stage(both, again({}))
    failing = checks._Stage(np.array([True, False]), again({0: OffSurfaceError("misses")}), 1, ChartDomainError)
    assert reduce(failing, first) == (math.inf, "OffSurfaceError: misses", 1)
    assert visits == [0, 0]


def test_a_stage_evaluates_its_stack_form_again_at_one_sample():
    x = np.array([0.1, 800.0])
    with ktrig.quiet():
        values, stage = checks._staged(lambda x, steps: steps.ck(-1e6, x), x, entry=2, skips=ChartDomainError)
    assert stage.bad.tolist() == [False, True]
    assert (stage.entry, stage.skips) == (2, ChartDomainError)
    assert stage.again(0) == values[0] == ktrig.ck(-1e6, 0.1)
    # the raising steps print the numpy row of the sample as a float
    with pytest.raises(ChartDomainError, match=r"^ck\(-1000000\.0, 800\.0\) overflows a double$"):
        stage.again(1)


def test_rejection_blocks_end_at_an_escaping_geometry_error():
    rng = np.random.default_rng(0)

    def block(ids, candidates):
        def again(k):
            raise OffSurfaceError("misses")

        k = np.arange(len(ids))
        return [checks._Stage(k == 1, None), checks._Stage(k == 3, again)], float

    # attempt 1 is rejected and attempt 3 raises: the accepted 0 and 2 count
    blocks = checks._rejection_sampled(rng, [(5, 10)], lambda ids: rng.random(len(ids)), block, "loop {}".format)
    r = checks._reduce("trig", "trig_identity", blocks)
    assert (r.max_defect, r.detail, r.samples) == (math.inf, "OffSurfaceError: misses", 2)


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
    results = run_all(SweepConfig(seed=seed))
    failing = [(r.name, r.max_defect, r.detail) for r in results if not r.passed]
    assert failing == []
    want = json.loads(CHECKS_GOLDEN.read_text())[str(seed)]
    assert {r.name: [repr(r.max_defect), r.samples, r.detail] for r in results} == want


@pytest.mark.parametrize("pair", list(json.loads(OFF_GRID_GOLDEN.read_text())))
def test_checks_off_the_grid_match_their_pinned_results(pair):
    kp = KappaPair(*map(float, pair.split(",")))
    results = run_all(SweepConfig(kappa_grid=(kp,), sample_count=5, seed=1))
    want = json.loads(OFF_GRID_GOLDEN.read_text())[pair]
    assert {r.name: [repr(r.max_defect), r.samples, r.detail] for r in results} == want


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


def test_a_kinematics_guard_that_accepts_zero_speed_fails_the_classification(monkeypatch):
    real = checks.kappa_from_kinematics
    monkeypatch.setattr(checks, "kappa_from_kinematics", lambda lam, c: real(lam, c) if c else KappaPair(1.0, 0.0))
    result = run_check("algebra_classification", SweepConfig(sample_count=1))
    assert (result.max_defect, result.passed, result.detail) == (1.0, False, "zero speed accepted")


# the checks that draw nothing from their stream on normalized9 at z = 0.1
SEED_FREE = (
    "trig_derivatives", "trig_taylor_match",
    "algebra_casimir_commutes", "algebra_rep_metricity",
    "duality_kappa_action", "duality_restrictions",
    "group_closed_vs_series", "group_sinh_identity",
    "geometry_domain_guards",
    "bialgebra_cocommutator", "bialgebra_cocycle", "bialgebra_dual_jacobi",
    "bialgebra_schouten", "bialgebra_mcybe", "bialgebra_coisotropy",
    "quantum_relations", "quantum_coassociativity", "quantum_classical_limit", "quantum_first_order",
)


def test_kept_folds_give_the_results_of_fresh_runs():
    warm = [repr(run_all(SweepConfig(seed=seed))) for seed in range(8)]
    assert sorted(checks._SEED_FREE) == sorted(SEED_FREE)
    assert "geometry_curvature" not in checks._SEED_FREE
    fresh = []
    for seed in range(8):
        checks._SEED_FREE.clear()
        fresh.append(repr(run_all(SweepConfig(seed=seed))))
    assert warm == fresh


def counted_runs(monkeypatch, name):
    """The configurations check name runs at from here on."""
    runs = []

    def counting(suite, cname, fn):
        def run(cfg, rng):
            runs.append(cfg)
            return fn(cfg, rng)

        return suite, cname, run if cname == name else fn

    monkeypatch.setattr(checks, "_REGISTRY", [counting(*entry) for entry in checks._REGISTRY])
    return runs


def test_a_patched_tolerance_judges_a_kept_fold(monkeypatch):
    cfg = SweepConfig(kappa_grid=(KappaPair(1.0, 1.0),), sample_count=2)
    kept = run_check("group_closed_vs_series", cfg)
    assert kept.passed
    runs = counted_runs(monkeypatch, "group_closed_vs_series")
    monkeypatch.setitem(DEFAULT_TOLERANCES, "group_closed_vs_series", -1.0)
    result = run_check("group_closed_vs_series", replace(cfg, seed=1))
    assert runs == []
    assert (result.tolerance, result.passed) == (-1.0, False)
    assert (result.max_defect, result.detail, result.samples) == (kept.max_defect, kept.detail, kept.samples)


@pytest.mark.parametrize(
    "change",
    [
        {"z_values": (0.2,)},
        {"kappa_grid": (KappaPair(-0.0, 1.0),)},
        {"kappa_grid": (KappaPair(0.0, 1.0), KappaPair(1.0, 1.0))},
        {"sample_count": 3},
    ],
    ids=["z", "signed zero", "grid", "samples"],
)
def test_another_configuration_misses_the_kept_fold(monkeypatch, change):
    runs = counted_runs(monkeypatch, "quantum_first_order")
    cfg = SweepConfig(kappa_grid=(KappaPair(0.0, 1.0),), sample_count=2)
    for seed in range(3):
        run_check("quantum_first_order", replace(cfg, seed=seed))
    assert len(runs) == 1
    changed = run_check("quantum_first_order", replace(cfg, **change))
    assert len(runs) == 2
    checks._SEED_FREE.clear()
    assert run_check("quantum_first_order", replace(cfg, **change)) == changed


def test_a_sweep_at_signed_zero_after_zero_prints_what_a_fresh_process_prints(capsys):
    argvs = (["sweep-all", "--k1", "0", "--k2", "1"], ["sweep-all", "--k1=-0.0", "--k2", "1"])
    in_one = []
    for argv in argvs:
        main(argv)
        in_one.append(capsys.readouterr().out)
    fresh = [
        subprocess.run([sys.executable, "-m", "ckgeom", *argv], capture_output=True, text=True, check=True).stdout
        for argv in argvs
    ]
    assert in_one == fresh
    assert "kappa=(-0,1)" in fresh[1] and "kappa=(-0,1)" not in fresh[0]


def test_grid_name_guard():
    assert len(kappa_grid_from_name("normalized9")) == 9
    with pytest.raises(ConfigError):
        kappa_grid_from_name("everything")


def test_config_validation_guards():
    with pytest.raises(ConfigError):
        SweepConfig(kappa_grid=()).validated()
    with pytest.raises(ConfigError):
        SweepConfig(kappa_grid=LIGHT.kappa_grid, z_values=()).validated()
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
    with pytest.raises(ConfigError):
        run_suite("nope", LIGHT)
