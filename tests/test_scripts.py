"""The stream-change scripts import this checkout's malakit, run from a plain checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Runs a script's top level (its imports, not its ``main``) and prints where malakit came from.
CHECK = "import runpy, sys\nrunpy.run_path(sys.argv[1], run_name='check')\nprint(sys.modules['malakit'].__file__)"


@pytest.mark.parametrize("script", ["regenerate_goldens.py", "make_bundled_dataset.py"])
def test_script_imports_the_checkout_without_pythonpath(tmp_path, script):
    # Both scripts failed with "No module named 'malakit'" at an earlier
    # version, and would have used any installed malakit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-c", CHECK, str(ROOT / "scripts" / script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert Path(run.stdout.strip()).resolve().is_relative_to(ROOT / "src")
