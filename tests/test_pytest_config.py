"""The test run's own configuration: pyproject's pytest settings and
conftest.py's address-space cap."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # no resource module, as on Windows
    resource = None

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
CONFTEST = Path(__file__).with_name("conftest.py")
GIB = 1 << 30
needs_rlimit_as = pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no RLIMIT_AS on this platform")

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


@needs_rlimit_as
def test_tier1_runs_under_a_1_gib_address_space_cap():
    """However tier-1 was launched, conftest.py has capped this session."""
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    assert soft != resource.RLIM_INFINITY and soft <= GIB


@needs_rlimit_as
def test_the_cap_lowers_the_soft_limit_only():
    """conftest.py lowers an uncapped or higher soft limit to 1 GiB, keeps a
    lower one, and leaves the hard limit as it was."""
    before = resource.getrlimit(resource.RLIMIT_AS)
    hard = before[1]
    cap = GIB if hard == resource.RLIM_INFINITY else min(GIB, hard)
    try:
        for soft, expected in ((hard, cap), (cap // 2, cap // 2)):
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
            runpy.run_path(str(CONFTEST))
            assert resource.getrlimit(resource.RLIMIT_AS) == (expected, hard)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, before)
