#!/usr/bin/env python3
"""Regenerate tests/goldens.json from pinned-seed reference runs.

The goldens freeze end-to-end quantities (zero-one summary angles, demo
experiment acceptance) produced by this exact code; tests compare against
them at tight relative tolerance.  Rerun after any intentional change to
the chains or the harness and commit the diff.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # this checkout's malakit, never an installed one

from malakit.harness import parse_spec, run_experiment  # noqa: E402

ZERO_ONE_SPEC = """\
malakit-spec v1
name = zero-one-golden

[target]
kind = zero_one
d = 3
r = 400
q0 = 0.7
epsilon = 0.1
c1 = 0.05
data_seed = 5

[sampler]
kind = constrained-mala

[schedule]
kind = explicit
eta = 0.05

[run]
iterations = 1500
replicas = 3
seed = 424242

[diagnostics]
zero_one_summary angle_max=0.35
"""

GAUSS_SPEC = """\
malakit-spec v1
name = gaussian-golden

[target]
kind = gaussian
d = 1
precision = 1.0

[sampler]
kind = mala

[schedule]
kind = explicit
eta = 0.5

[run]
iterations = 500
replicas = 4
seed = 777

[diagnostics]
acceptance_stats
"""


def main() -> None:
    goldens = {}
    with tempfile.TemporaryDirectory() as tmp:
        report = run_experiment(parse_spec(ZERO_ONE_SPEC), output_dir=Path(tmp) / "z")
        zo = report.diagnostics["zero_one_summary"]
        goldens["zero_one"] = {
            "median_angle": zo["median_angle"],
            "angles": zo["angles"],
            "hitting_iterations": zo["hitting_iterations"],
        }
        report2 = run_experiment(parse_spec(GAUSS_SPEC), output_dir=Path(tmp) / "g")
        goldens["gaussian_demo"] = report2.diagnostics["acceptance_stats"]
    out = ROOT / "tests" / "goldens.json"
    out.write_text(json.dumps(goldens, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
