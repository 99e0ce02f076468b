"""Shared test helpers."""

import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from malakit.chains import ChainConfig, run_mala, run_rwm
from malakit.diagnostics import acceptance_stats
from malakit.harness import build_target
from malakit.targets import ConstraintSet


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


def _row_by_row(target):
    """A copy of ``target`` whose oracles take an ``(n, d)`` batch one row
    at a time: the reference that batched evaluation is checked against."""
    def value_and_grad(x):
        pots, grads = zip(*(target.value_and_grad(row) for row in x))
        return np.array(pots, dtype=float), np.array(grads, dtype=float)

    return dataclasses.replace(target, potential=lambda x: np.array([float(target.potential(row)) for row in x]),
                               gradient=lambda x: np.array([target.gradient(row) for row in x], dtype=float),
                               fused=value_and_grad)


@pytest.fixture(scope="session")  # session scope: a plain function, safe under hypothesis
def row_by_row():
    return _row_by_row


def _full_space() -> ConstraintSet:
    """The vacuous constraint (all of R^d)."""
    return ConstraintSet(membership=lambda x: np.ones(np.shape(x)[:-1], dtype=bool))


@pytest.fixture
def full_space():
    return _full_space


def _warmness_on_grid(start_dist, target_dist) -> float:
    """Warmness beta = max cell ratio mu0 / pi on a shared grid.

    On a grid the supremum over sets is attained cellwise.  Start mass on a
    zero-target cell means the start is not warm at any finite level; the
    returned value is ``inf`` in that case.
    """
    if start_dist.mass.shape != target_dist.mass.shape or start_dist.dims != target_dist.dims:
        raise ValueError("distributions must share grid geometry")
    mu = start_dist.mass.ravel()
    pi = target_dist.mass.ravel()
    live = mu > 0
    if np.any(pi[live] == 0.0):
        return math.inf
    return float(np.max(mu[live] / pi[live])) if np.any(live) else 0.0


@pytest.fixture
def warmness_on_grid():
    return _warmness_on_grid


def _brute_force_conductance(kernel, mass, cuts=None) -> float:
    """Least flow(S) / pi(S) over the cuts S with 0 < pi(S) <= 1/2, every
    sum taken exactly by ``math.fsum``.  ``cuts`` (index tuples) defaults
    to every nonempty proper subset."""
    n = len(mass)
    flux = (np.asarray(mass)[:, None] * np.asarray(kernel)).tolist()
    if cuts is None:
        cuts = (side for size in range(1, n) for side in itertools.combinations(range(n), size))
    best = math.inf
    for side in cuts:
        side_mass = math.fsum(mass[i] for i in side)
        if 0.0 < side_mass <= 0.5 + 1e-12:
            inside = set(side)
            out = [j for j in range(n) if j not in inside]
            best = min(best, math.fsum(flux[i][j] for i in side for j in out) / side_mass)
    return best


@pytest.fixture
def brute_force_conductance():
    return _brute_force_conductance
