import pytest

from ckgeom import checks


@pytest.fixture(autouse=True)
def no_kept_folds():
    # a test that patches what a check calls must not read a fold that the
    # unpatched code left (the checks module docstring states the rule)
    checks._SEED_FREE.clear()
