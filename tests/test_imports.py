"""Every name a library or test module imports is used in that module.

A name imported and never read is dead code that still ties the modules
together; it is found with the stdlib ``ast`` module, without importing.
The test oracles in ``reference.py`` are checked to import none of the
library code they are compared against.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "bezmortar"

# (module, name) pairs imported on purpose: benchmarks.py holds fem.evaluate_cell
# only so that the benchmark harness, which wraps every holder of a function,
# finds it there
KEPT = {("benchmarks", "evaluate_cell")}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_import_rule():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from a import b, c as d\n\ndef f(x: d) -> None:\n    return os.sep\n")
    assert unused_imports(source) == ["b", "np"]


def test_library_modules_use_every_import():
    # the package's __init__ imports are its public names, not uses
    found = [(path.stem, name) for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
             for name in unused_imports(path.read_text())]
    assert set(found) - KEPT == set()
    assert KEPT <= set(found), "a kept import is used now; drop it from KEPT"


def test_test_modules_use_every_import():
    found = [(path.stem, name) for path in sorted(TESTS.glob("*.py"))
             for name in unused_imports(path.read_text())]
    assert found == []


def test_reference_oracles_import_only_knot_data():
    # the Cox-de Boor oracles read a knot vector's values and nothing of the
    # Bezier-form code they check
    tree = ast.parse((TESTS / "reference.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{a.name}" for a in node.names)
    library = {name for name in imported if name.startswith("bezmortar")}
    assert library == {"bezmortar.splines.KnotVector", "bezmortar.splines.OutOfDomainError"}
    assert imported - library == {"__future__.annotations", "numpy", "scipy.sparse"}
