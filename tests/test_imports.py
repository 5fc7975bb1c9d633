"""Every name a package module imports is used in that module.

A binding kept only for another module to find is marked `# noqa: F401`
on its import line and is exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ckgeom"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[node.lineno - 1]:
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used and name != "annotations"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import math\nfrom os import path, sep\nfrom sys import argv  # noqa: F401\nprint(path)\n"
    assert unused_imports(source) == ["math (line 1)", "sep (line 2)"]
