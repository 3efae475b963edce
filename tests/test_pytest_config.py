"""The repository's pytest configuration, exercised on a throwaway test."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """\
from hypothesis import Phase, given, settings, strategies as st

@settings(database=None, phases=[Phase.generate])
@given(st.integers())
def test_fails(x):
    assert False
"""


def test_failing_hypothesis_test_is_reported_not_internal_error(tmp_path):
    # every warning is an error here, and hypothesis's failure report
    # imports libcst, which warns on import; the session must survive it
    (tmp_path / "test_fails.py").write_text(FAILING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1
    assert "1 failed" in output
