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


def test_option_table_matches_the_case_table():
    # the README's "Not every case reads every option" table lists every case
    # id once, with the settings its row of ``CASES`` fixes and no other
    from bezmortar.benchmarks import CASES

    text = README.read_text().split("Not every case reads every option", 1)[1]
    table = text[text.index("\n| case |") + 1:].split("\n\n", 1)[0].splitlines()
    header, _, *rows = [[c.strip() for c in line.strip("|").split("|")] for line in table]
    readers = {
        "`--p`": lambda v: ("p", int(v)),
        "`--ratio`": lambda v: ("ratio", tuple(int(x) for x in v.split(":"))),
        "`--mismatched`": lambda v: ("matched", {"not allowed": True}[v]),
        "`--n`": lambda v: ("dual_refine", int(v)),
    }
    listed = []
    for ids, *values in rows:
        fixes = dict(readers[opt](v) for opt, v in zip(header[1:], values) if v != "read")
        for case_id in re.findall(r"`([\w-]+)`", ids):
            listed.append(case_id)
            assert fixes == CASES[case_id].fixes, case_id
    assert sorted(listed) == sorted(CASES)
