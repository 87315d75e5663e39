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
