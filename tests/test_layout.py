"""Package layout: modules reach each other only through public names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pdlangevin"


def _private_imports(source: str) -> list[str]:
    """The ``_``-prefixed names that ``source`` imports from another module
    of the package, relatively or by the package's name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "pdlangevin":
            continue
        found += [f"{'.' * node.level}{module}.{a.name}" for a in node.names
                  if a.name.startswith("_")]
    return found


def test_the_check_sees_relative_and_absolute_private_imports():
    source = ("from __future__ import annotations\nfrom .samplers import Run, _drive\n"
              "from pdlangevin.coupling import _w2\nfrom numpy import _core\n")
    assert _private_imports(source) == [".samplers._drive", "pdlangevin.coupling._w2"]


def test_no_module_imports_another_modules_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    found = {p.name: _private_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}
