"""Every name a package module imports is used in that module, and every
public function and class is used somewhere.

A binding kept only for another module to find is marked `# noqa: F401`
on its import line and is exempt.  A public top-level function or class
must be referenced by package code outside its own definition, or be named
by the README, scripts/, perfbench/ or pyproject.toml.

The floating-point policy is stated once: no module names np.errstate
outside ktrig.quiet (see ktrig).
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ckgeom"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
NAMING = [ROOT / "README.md", ROOT / "pyproject.toml", *sorted((ROOT / "scripts").rglob("*.py"))]
NAMING += sorted((ROOT / "perfbench").rglob("*.py"))


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


def dead_public_names(sources: dict[str, str], named: str) -> list[str]:
    """module.name of each public top-level function and class of the
    modules sources (module -> source) that no statement references outside
    its own definition and the text named does not name.  An import is not
    a reference."""
    defined, referenced = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            refs = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            refs |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)
                if not stmt.name.startswith("_"):
                    defined.append((module, stmt.name))
            referenced |= refs
    return [
        f"{module}.{name}"
        for module, name in defined
        if name not in referenced and not re.search(rf"\b{name}\b", named)
    ]


def test_every_public_name_is_used():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert dead_public_names(sources, "\n".join(p.read_text() for p in NAMING)) == []


def test_a_dead_public_name_is_found():
    source = (
        "def used():\n    pass\n\n\ndef dead():\n    return dead()\n\n\n"
        "class Named:\n    pass\n\n\ndef _private():\n    used()\n"
    )
    assert dead_public_names({"m": source}, "see Named") == ["m.dead"]


def errstate_sites(sources: dict[str, str]) -> list[str]:
    """module:line of each errstate that the modules sources (module ->
    source) name outside the function quiet of ktrig."""
    sites = []
    for module, source in sources.items():
        tree = ast.parse(source)
        policy = [s for s in tree.body if module == "ktrig" and isinstance(s, ast.FunctionDef) and s.name == "quiet"]
        allowed = {id(n) for stmt in policy for n in ast.walk(stmt)}
        sites += [
            f"{module}:{n.lineno}"
            for n in ast.walk(tree)
            if id(n) not in allowed
            and "errstate" in (getattr(n, "attr", None), getattr(n, "id", None), getattr(n, "name", None))
        ]
    return sites


def test_the_floating_point_policy_is_stated_once():
    assert errstate_sites({path.stem: path.read_text() for path in MODULES}) == []


def test_an_errstate_outside_quiet_is_found():
    policy = "import numpy as np\n\n\ndef quiet() -> np.errstate:\n    return np.errstate(over='ignore')\n"
    stray = "from numpy import errstate\n\n\ndef f(x):\n    with np.errstate(over='ignore'):\n        return x\n"
    assert errstate_sites({"ktrig": policy, "group": policy, "spaces": stray}) == [
        "group:4", "group:5", "spaces:1", "spaces:5",
    ]
