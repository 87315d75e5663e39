"""The suite's pytest configuration reports a failing generated test, and
draws the same examples whatever local modules are loaded."""

import hashlib
import importlib
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parents[1]


def test_failing_generated_test_is_reported(tmp_path):
    # hypothesis loads libcst (and through it mypy_extensions, which warns of
    # its own deprecation) only while it reports a failing example
    test = tmp_path / "test_fails.py"
    test.write_text("from hypothesis import given, strategies as st\n\n\n"
                    "@given(st.integers())\ndef test_fails(n):\n    assert n < 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert proc.returncode == 1


def _drawn_examples(backend: str) -> str:
    """Hash of the examples one generated test draws under ``backend``."""
    seen = []

    @settings(backend=backend)
    @given(st.lists(st.floats(0.0, 10.0), min_size=10, max_size=10), st.integers(0, 1000))
    def draw(xs, n):
        seen.append((xs, n))

    draw()
    return hashlib.sha256(repr(seen).encode()).hexdigest()


def test_examples_do_not_move_with_loaded_literals(tmp_path, monkeypatch):
    # a module outside site-packages and the test directories, full of
    # literals the strategies above permit, loaded between two draws
    (tmp_path / "extra_literals.py").write_text(
        "LITERALS = (" + ", ".join(f"{0.731 + k / 7:.6f}" for k in range(40)) + ", 17, 423)\n")
    before = {b: _drawn_examples(b) for b in ("source-free", "hypothesis")}
    monkeypatch.syspath_prepend(tmp_path)
    importlib.import_module("extra_literals")
    try:
        after = {b: _drawn_examples(b) for b in ("source-free", "hypothesis")}
    finally:
        del sys.modules["extra_literals"]
    assert settings.default.backend == "source-free"
    assert after["source-free"] == before["source-free"]
    # hypothesis's default provider draws from the new literals: its examples move
    assert after["hypothesis"] != before["hypothesis"]
