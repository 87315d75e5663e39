"""The suite's pytest configuration reports a failing generated test."""

import subprocess
import sys
from pathlib import Path

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
