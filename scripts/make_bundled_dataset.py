#!/usr/bin/env python3
"""Regenerate the bundled demo dataset (data/bundled_r50.csv).

Never edit the CSV by hand; rerun this script instead.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # this checkout's malakit, never an installed one

from malakit.targets import sample_sphere_dataset, save_dataset  # noqa: E402


def main() -> None:
    data = sample_sphere_dataset(d=5, r=50, q0=0.7, seed=1234)
    csv_path, sidecar = save_dataset(data, ROOT / "data" / "bundled_r50.csv")
    print(f"wrote {csv_path}")
    print(f"wrote {sidecar}")


if __name__ == "__main__":
    main()
