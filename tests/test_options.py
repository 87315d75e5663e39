"""The library's count of settable values is pinned.

A parameter with a default is an option a caller may set; one that no
caller sets to another value is a constant.  Each field of a dataclass or
a NamedTuple is a value a caller sets too.  The pins make every new option
or field a deliberate change: raise a pin in the same change, and give the
reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bezmortar"

# parameters with a default, over every function and lambda in src/bezmortar
DEFAULTED_PARAMETERS = 26
# fields of every @dataclass and typing.NamedTuple class in src/bezmortar;
# 45 dataclass fields and the 10 of the case table's row types, CaseRow (4)
# and LinearProblem (6), which only the table fills
DATACLASS_FIELDS = 55


def defaulted_parameters(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def _name(node: ast.expr) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else target.id


def _has_fields(node: ast.ClassDef) -> bool:
    return (any(_name(dec) == "dataclass" for dec in node.decorator_list)
            or any(_name(base) == "NamedTuple" for base in node.bases))


def dataclass_fields(source: str) -> int:
    """Annotated names in the bodies of classes decorated with ``dataclass``
    or derived from ``NamedTuple``."""
    return sum(isinstance(stmt, ast.AnnAssign)
               for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef) and _has_fields(node)
               for stmt in node.body)


def _total(count) -> int:
    return sum(count(path.read_text()) for path in sorted(SRC.glob("*.py")))


def test_counting_rule():
    source = ("def f(a, b=1, /, c=2, *args, d, e=3, **kw):\n    pass\n\n"
              "class K:\n    async def g(self, x=None):\n        return lambda y=0: y\n")
    assert defaulted_parameters(source) == 5


def test_field_counting_rule():
    source = ("import dataclasses\nfrom dataclasses import dataclass, field\n\n"
              "@dataclass\nclass A:\n    '''doc'''\n    x: int\n    y: int = 0\n"
              "    z: list = field(default_factory=list)\n"
              "    def f(self):\n        w: int = 1\n        return w\n\n"
              "@dataclasses.dataclass(frozen=True, kw_only=True)\nclass B:\n    a: int\n\n"
              "class C:\n    b: int\n\n"
              "class N(NamedTuple):\n    a: int\n    b: int = 0\n\n"
              "class M(typing.NamedTuple):\n    c: int\n\n"
              "class D(C, object):\n    d: int\n")
    assert dataclass_fields(source) == 7


def test_defaulted_parameter_count_is_pinned():
    count = _total(defaulted_parameters)
    assert count == DEFAULTED_PARAMETERS, (
        f"{count} defaulted parameters in src/bezmortar, pinned at {DEFAULTED_PARAMETERS}: "
        "a new option raises the pin with its reason, a removed one lowers it")


def test_dataclass_field_count_is_pinned():
    count = _total(dataclass_fields)
    assert count == DATACLASS_FIELDS, (
        f"{count} dataclass fields in src/bezmortar, pinned at {DATACLASS_FIELDS}: "
        "a new field raises the pin with its reason, a removed one lowers it")
