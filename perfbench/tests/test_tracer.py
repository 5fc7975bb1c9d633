import inspect
import sys

import pytest

from tracer import LAYERS, Tracer, leftover_wrappers


def _scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_child_spans():
    tracer = Tracer(layers=("outer", "inner"), clock=_scripted_clock(0.0, 1.0, 3.0, 4.0, 7.0, 10.0))

    def inner_fn():
        return 1

    inner = tracer.wrap(inner_fn, "inner.f", "inner")
    outer = tracer.wrap(lambda: inner() + inner(), "outer.g", "outer")
    assert outer() == 2

    spans = tracer.spans()
    assert spans["parent"].tolist() == [-1, 0, 0]
    assert tracer.self_times().tolist() == [5.0, 2.0, 3.0]
    totals = tracer.layer_totals()
    assert totals["outer"] == {"calls": 1, "self_s": 5.0, "raised": 0}
    assert totals["inner"] == {"calls": 2, "self_s": 5.0, "raised": 0}


def test_exceptions_are_counted_and_the_stack_unwinds():
    tracer = Tracer(layers=("a",), clock=_scripted_clock(0.0, 1.0, 2.0, 3.0))

    def fail():
        raise ValueError("boom")

    wrapped = tracer.wrap(fail, "a.fail", "a")
    with pytest.raises(ValueError):
        wrapped()
    tracer.wrap(lambda: None, "a.ok", "a")()
    assert tracer.spans()["parent"].tolist() == [-1, -1]
    assert tracer.layer_totals()["a"]["raised"] == 1


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "ckgeom" or name.startswith("ckgeom."):
            out[name] = dict(vars(mod))
            for obj in vars(mod).values():
                if inspect.isclass(obj) and obj.__module__ == name:
                    out[f"{name}.{obj.__qualname__}"] = dict(vars(obj))
    return out


def test_install_wraps_imported_names_and_uninstall_restores_them():
    import ckgeom
    from ckgeom import checks, group, ktrig, poisson
    from ckgeom.errors import PoleError

    before = _bindings()
    original_post_init = group.GroupElement.__dict__["__post_init__"]
    with Tracer() as tracer:
        assert poisson.coords_from_group is group.coords_from_group is ckgeom.coords_from_group
        assert poisson.coords_from_group is not before["ckgeom.group"]["coords_from_group"]
        assert checks.sklyanin_numeric is poisson.sklyanin_numeric
        assert group.GroupElement.__dict__["__post_init__"] is not original_post_init
        assert len(leftover_wrappers()) > 100

        kp = ckgeom.KappaPair(1.0, 1.0)
        group.group_from_coords(kp, group.GroupCoordinates(0.1, 0.2, 0.3))
        with pytest.raises(PoleError):
            ktrig.tk(1.0, 0.5 * 3.141592653589793)
    names = set(tracer.name_totals())
    assert {"group.group_from_coords", "group.GroupElement.__post_init__",
            "group.GroupElement.__matmul__", "algebra.KappaPair.k12", "ktrig.ck"} <= names
    totals = tracer.layer_totals()
    assert set(totals) == set(LAYERS)
    assert totals["ktrig"]["raised"] == 1
    assert totals["group"]["calls"] >= 7  # 1 product, 3 one-parameter factors, 3+ validations

    assert leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    for scope, names in before.items():
        assert all(after[scope][k] is v for k, v in names.items()), scope
