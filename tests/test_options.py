"""The library's count of defaulted parameters is pinned.

A parameter with a default is an option a caller may set; one that no
caller sets to another value is a constant.  The pin makes every new option
a deliberate change: raise it in the same change, and give the reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bezmortar"

# parameters with a default, over every function and lambda in src/bezmortar
DEFAULTED_PARAMETERS = 61


def defaulted_parameters(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def test_counting_rule():
    source = ("def f(a, b=1, /, c=2, *args, d, e=3, **kw):\n    pass\n\n"
              "class K:\n    async def g(self, x=None):\n        return lambda y=0: y\n")
    assert defaulted_parameters(source) == 5


def test_defaulted_parameter_count_is_pinned():
    count = sum(defaulted_parameters(path.read_text()) for path in sorted(SRC.glob("*.py")))
    assert count == DEFAULTED_PARAMETERS, (
        f"{count} defaulted parameters in src/bezmortar, pinned at {DEFAULTED_PARAMETERS}: "
        "a new option raises the pin with its reason, a removed one lowers it")
