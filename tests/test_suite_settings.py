"""The suite's pytest settings, run on a throwaway test module."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_a_passing_test():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # Hypothesis's failure report may import modules that warn; with
    # warnings as errors, that must fail the one test, not the session.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    result = subprocess.run(
        [
            sys.executable,
            *(f"-W{option}" for option in sys.warnoptions),
            "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout.splitlines()[-1]
