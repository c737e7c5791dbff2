"""The test run's own configuration: pyproject's pytest settings."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, phases=[Phase.generate])
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_hides_no_later_test(tmp_path):
    """Every warning is an error, yet a failing hypothesis test still lets the
    session go on to the tests after it."""
    (tmp_path / "test_pair.py").write_text(FAILING_THEN_PASSING)
    # hypothesis's plugin alone, whatever other plugins are installed
    env = {**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "_hypothesis_pytestplugin",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
