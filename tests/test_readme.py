import ast
import importlib
import pkgutil
import re
from pathlib import Path

import bezmortar

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_exported_names_resolve():
    # a name left in ``__all__`` or the package imports after its
    # definition is deleted fails here
    for info in pkgutil.iter_modules(bezmortar.__path__):
        module = importlib.import_module(f"bezmortar.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"bezmortar.{info.name}.{name}"
    tree = ast.parse(Path(bezmortar.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                assert hasattr(bezmortar, alias.asname or alias.name), alias.name


def test_library_tour_names_resolve():
    # every backticked ``module.name`` in the library-tour table must exist,
    # so a deleted name cannot linger in the docs
    table = README.read_text().split("## Library tour", 1)[1].split("\n#", 1)[0]
    modules = {info.name for info in pkgutil.iter_modules(bezmortar.__path__)}
    names = [n for n in re.findall(r"`([A-Za-z_][\w.]*)`", table)
             if "." in n and n.split(".")[0] in modules]
    assert names
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"bezmortar.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
