"""The suite's pytest settings report every failing test, property tests included."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TOY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified_property(x):
    assert x < 5


def test_passes():
    pass


def test_fails():
    assert False
"""


def test_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # Under filterwarnings = ["error"] alone, the DeprecationWarning that
    # hypothesis raises while it reports a falsified example aborted the
    # session with INTERNALERROR (exit 3) before the other two tests ran.
    (tmp_path / "test_toy.py").write_text(TOY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_toy.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout
    assert "2 failed, 1 passed" in run.stdout.splitlines()[-1]
