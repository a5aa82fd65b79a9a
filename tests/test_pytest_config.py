"""The test configuration itself: a failing test is reported, never an internal error."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_given_fails(x):
    assert x < 0


def test_plain_fails():
    assert False
"""


def test_failing_hypothesis_test_is_reported_with_the_rest(tmp_path):
    # reporting a failing example imports libcst, whose import warns; the
    # warning filters must not turn that into an error inside pytest's hooks
    probe = tmp_path / "test_probe.py"
    probe.write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider",
         "-q", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed" in run.stdout, run.stdout
    assert "FAILED" in run.stdout and "test_given_fails" in run.stdout
    assert "test_plain_fails" in run.stdout


def test_a_hung_test_dumps_its_stacks(pytestconfig):
    # faulthandler_timeout: a test that hangs (on a worker pool, say) has its
    # threads' stacks dumped instead of stalling the suite without a word
    assert 0 < float(pytestconfig.getini("faulthandler_timeout")) <= 300
