"""Package layout: modules reach each other only through public names."""

import ast
from pathlib import Path

import numpy as np

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


# numpy's bit generator classes, BitGenerator itself among them
BIT_GENERATORS = frozenset(
    name for name, obj in vars(np.random).items()
    if isinstance(obj, type) and issubclass(obj, np.random.BitGenerator)
)


def _bit_generators_named(source: str) -> list[str]:
    """The numpy bit generator classes that ``source`` names: as a name, an
    attribute or an imported name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in BIT_GENERATORS:
            found.append(name)
    return found


def test_the_check_sees_every_way_to_name_a_bit_generator():
    source = ("import numpy as np\nfrom numpy.random import PCG64\n"
              "g = np.random.Generator(np.random.Philox(0))\nh = SFC64\n"
              "rng = np.random.default_rng(0)\n")
    assert sorted(_bit_generators_named(source)) == ["PCG64", "Philox", "SFC64"]


def test_only_samplers_builds_bit_generators():
    # every noise stream comes from samplers.noise_stream; default_rng for
    # the phantom's noise and the posterior's draws names no class
    found = {p.name: _bit_generators_named(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "samplers.py"}
    assert {name: names for name, names in found.items() if names} == {}
