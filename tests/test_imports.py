"""Every name a library or test module imports is used in that module, and
every definition in the library is read by the library.

A name imported and never read is dead code that still ties the modules
together; a library function, class or method that only tests read is test
code kept in the library.  Both are found with the stdlib ``ast`` module,
without importing.  The test oracles in ``reference.py`` are checked to
import none of the library code they are compared against.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "bezmortar"

# (module, name) pairs imported on purpose: benchmarks.py holds fem.evaluate_cell
# only so that the benchmark harness, which wraps every holder of a function,
# finds it there
KEPT = {("benchmarks", "evaluate_cell")}

# definitions that nothing in src/bezmortar reads, kept as entry points
ENTRY_POINTS = {
    "evaluate_cell": "the benchmark harness wraps it and counts its calls",
    "load_mesh": "reads a mesh document; the CLI only writes them",
    "model_from_document": "rebuilds a model from a loaded mesh document",
    "manufactured_fields": "a linear case's exact solution fields, for callers' own checks",
    "interface_jump_norm": "the interface jump of a solution, an observable of the mortar method",
    "weak_vs_conforming_relative_error": "the large-deformation study of criterion 10",
    "row_sum_error": "each coupling's consistency check, which ROADMAP item 5's trace reports",
}


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


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes, and methods other than dunders,
    whose name no place outside their own body reads, as ``module.name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((_reads(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
            found += [f"{module}.{qual}" for qual, d in defs
                      if total[d.name] == _reads(d)[d.name]]
    return found


def test_unread_definition_rule():
    sources = {"a": "def f():\n    return f()\n\ndef g():\n    pass\n\n"
                    "class K:\n    def m(self):\n        pass\n\n"
                    "    def __len__(self):\n        return 0\n\n"
                    "    def r(self):\n        return self.m\n",
               "b": "from a import g\n\nx = g\n"}
    assert unread_definitions(sources) == ["a.f", "a.K", "a.K.r"]


def test_every_library_definition_has_a_library_reader():
    # the package's __init__ imports and __all__ strings are exports, not reads
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unread = {name.rsplit(".", 1)[1]: name for name in unread_definitions(sources)}
    assert sorted(unread[n] for n in set(unread) - set(ENTRY_POINTS)) == []
    assert set(ENTRY_POINTS) <= set(unread), "an entry point is read now; drop it"


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
