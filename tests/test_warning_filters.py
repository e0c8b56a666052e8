"""The warning filters of pyproject.toml: every warning fails a test, but
for the one DeprecationWarning hypothesis's failure report sets off."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TESTS = textwrap.dedent(
    """
    import warnings

    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_hypothesis_failure(n):
        assert n < 10


    def test_other_deprecation_warning():
        warnings.warn("some other API is deprecated", DeprecationWarning)
    """
)


def test_failing_hypothesis_test_shows_its_example_and_other_warnings_still_fail(tmp_path):
    # hypothesis imports mypy_extensions to write its failure report, which
    # warns that mypy_extensions.TypedDict is deprecated: as an error, that
    # ends the run in INTERNALERROR and hides the falsifying example
    (tmp_path / "pyproject.toml").write_bytes(PYPROJECT.read_bytes())
    (tmp_path / "test_guard.py").write_text(TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_guard.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example: test_hypothesis_failure(" in out, out
    assert "FAILED test_guard.py::test_hypothesis_failure" in out, out
    assert "FAILED test_guard.py::test_other_deprecation_warning" in out, out
    assert "2 failed" in out, out
