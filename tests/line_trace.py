"""List the executable lines of src/bezmortar that the tier-1 suite never runs.

Runs the suite in this process under ``sys.settrace`` and
``threading.settrace``, with the criterion 10 acceptance test deselected
(its pinned protocol is slow and is left red by design), and prints each
line that no test reached as ``module.py:line``.  Subprocesses are not
traced, so every line a subprocess test runs (the CLI's ``__main__`` guard,
for one) must also run in process.

The tracer roughly doubles the suite's time, so it is a script, not a test:
pytest's default ``test_*.py`` pattern does not collect it.  Run it from the
repository root:

    python tests/line_trace.py [extra pytest arguments]

It exits 0 when every executable line ran, 1 when some did not, and with the
suite's exit code when the suite itself fails.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bezmortar"
DESELECT = "tests/test_acceptance.py::test_criterion_10_large_deformation"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in the module or any code object in it."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    src = str(SRC)
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(src):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", DESELECT, *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        missed += [f"{path.name}:{n}" for n in sorted(lines - ran.get(str(path), set()))]
    print(f"\n{len(missed)} of {total} executable lines in src/bezmortar never ran")
    print("\n".join(missed))
    if status != pytest.ExitCode.OK:
        return int(status)
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
