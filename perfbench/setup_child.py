"""Time a workload's set-up in a fresh process.

Usage: ``python3 perfbench/setup_child.py SPEC`` with malakit's ``src`` on
``PYTHONPATH``.  Measures importing malakit, parsing SPEC, building its
target (dataset generation included) and resolving its step sizes (the
theorem1 probe estimators included), and prints one JSON line.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import malakit  # noqa: E402
from malakit.harness import build_target, parse_spec, resolve_etas  # noqa: E402


def main(spec_path: str) -> None:
    spec = parse_spec(Path(spec_path).read_text())
    built = build_target(spec)
    etas, _ = resolve_etas(spec, built)
    elapsed = time.perf_counter() - START
    print(json.dumps({"setup_s": elapsed, "etas": etas, "malakit": malakit.__file__}))


if __name__ == "__main__":
    main(sys.argv[1])
