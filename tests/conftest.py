"""Shared test helpers."""

from pathlib import Path

import numpy as np
import pytest

from malakit.chains import ChainConfig, run_mala, run_rwm
from malakit.diagnostics import acceptance_stats
from malakit.harness import build_target


def _solo_mismatches(spec, out_dir, tmp_dir) -> list[str]:
    """Cells of an unconstrained run whose summary row or trace differs from
    the chain of that cell run alone from the origin."""
    built = build_target(spec)
    runner = run_rwm if spec.sampler == "rwm" else run_mala
    out_dir, tmp_dir = Path(out_dir), Path(tmp_dir)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    bad = []
    for line in (out_dir / "summary.csv").read_text().splitlines()[1:]:
        e_idx, eta, rep, seed = line.split(",")[:4]
        config = ChainConfig(step_size=float(eta), iterations=spec.iterations, seed=int(seed),
                             lazy=spec.lazy, record_every=spec.record_every)
        trace = runner(built.target, config, np.zeros(built.target.dimension))
        stats = acceptance_stats(trace)
        k = trace.argmin_index
        expected = ",".join([
            e_idx, eta, rep, seed, str(spec.iterations), repr(stats.accepted_fraction), repr(stats.mean),
            repr(float(np.mean(np.abs(trace.energy_errors)))), repr(float(trace.potentials[k])),
            str(int(trace.indices[k])), str(trace.gradient_evals), str(trace.function_evals)])
        name = f"trace_{e_idx}_{rep}.csv"
        same_trace = trace.to_csv(tmp_dir / name).read_bytes() == (out_dir / name).read_bytes()
        if line != expected or not same_trace:
            bad.append(name)
    return bad


@pytest.fixture
def solo_mismatches():
    return _solo_mismatches
