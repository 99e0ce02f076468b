"""Chain runners: determinism, stationarity, accounting, and schedules."""

import dataclasses
import math

import numpy as np
import pytest

from malakit.chains import (
    ChainConfig,
    extract_minimizer,
    mala_step,
    run_constrained_mala,
    run_ensemble,
    run_mala,
    run_rwm,
    rwm_step,
    theorem1_step_size,
    warmness_on_grid,
)
from malakit.grids import GridDistribution
from malakit.integrator import NumericFailure
from malakit.rng import chain_rng
from malakit.targets import (
    TargetModel,
    annulus,
    full_space,
    make_gaussian,
    make_smoothed_zero_one,
    precondition,
    sample_sphere_dataset,
)

STD_1D = make_gaussian(1, 1.0)


def flat_target(d):
    return TargetModel(
        dimension=d,
        potential=lambda x: np.zeros(np.asarray(x, dtype=float).shape[:-1]),
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        name=f"flat-{d}",
    )


class TestMalaStep:
    def test_flat_target_always_accepts(self):
        t = flat_target(2)
        rng = chain_rng(0)
        steps = [mala_step(t, np.zeros(2), 0.3, rng) for _ in range(200)]
        assert all(s.accepted for s in steps)
        assert all(s.energy_error == 0.0 for s in steps)
        # proposals are Gaussian with scale eta around the current point
        moves = np.array([s.proposed for s in steps])
        assert np.std(moves) == pytest.approx(0.3, rel=0.15)

    def test_tiny_step_accepts_almost_surely(self):
        trace = run_mala(STD_1D, ChainConfig(step_size=1e-8, iterations=10**4, seed=3), np.zeros(1))
        assert np.all(np.exp(trace.log_accepts) >= 1.0 - 1e-6)

    def test_stationary_moments(self):
        trace = run_mala(STD_1D, ChainConfig(step_size=0.5, iterations=10**5, seed=12), np.zeros(1))
        xs = trace.states[:, 0]
        assert -0.02 <= float(np.mean(xs)) <= 0.02
        assert 0.95 <= float(np.var(xs)) <= 1.05


class TestRunMala:
    def test_single_iteration_matches_step(self):
        cfg = ChainConfig(step_size=0.4, iterations=1, seed=99)
        trace = run_mala(STD_1D, cfg, np.array([0.5]))
        manual = mala_step(STD_1D, np.array([0.5]), 0.4, chain_rng(99))
        assert np.array_equal(trace.states[0], manual.state)
        assert np.array_equal(trace.proposed[0], manual.proposed)
        assert trace.energy_errors[0] == manual.energy_error
        assert bool(trace.accepted[0]) == manual.accepted

    def test_seed_determinism(self):
        cfg = ChainConfig(step_size=0.5, iterations=500, seed=42)
        a = run_mala(STD_1D, cfg, np.zeros(1))
        b = run_mala(STD_1D, cfg, np.zeros(1))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.energy_errors, b.energy_errors)
        assert np.array_equal(a.accepted, b.accepted)

    def test_lazy_fraction(self):
        t = flat_target(1)
        cfg = ChainConfig(step_size=0.5, iterations=10**5, seed=7, lazy=True)
        trace = run_mala(t, cfg, np.zeros(1))
        stay = float(np.mean(~trace.accepted))  # flat target: every proposal accepts
        assert 0.48 <= stay <= 0.52

    def test_reject_keeps_state(self):
        trace = run_mala(STD_1D, ChainConfig(step_size=1.5, iterations=2000, seed=5), np.zeros(1))
        rejected = np.flatnonzero(~trace.accepted)
        rejected = rejected[rejected > 0]
        assert rejected.size > 0
        for k in rejected[:50]:
            assert np.array_equal(trace.states[k], trace.states[k - 1])

    def test_gradient_accounting(self):
        cfg = ChainConfig(step_size=0.5, iterations=1000, seed=1)
        trace = run_mala(STD_1D, cfg, np.zeros(1))
        assert trace.gradient_evals == 2 * 1000
        lazy_cfg = ChainConfig(step_size=0.5, iterations=1000, seed=1, lazy=True)
        lazy_trace = run_mala(flat_target(1), lazy_cfg, np.zeros(1))
        accepted = int(np.count_nonzero(lazy_trace.accepted))  # = non-lazy on flat target
        assert lazy_trace.gradient_evals == 2 * accepted

    def test_record_every_thins_but_keeps_last(self):
        cfg = ChainConfig(step_size=0.5, iterations=1003, seed=2, record_every=100)
        trace = run_mala(STD_1D, cfg, np.zeros(1))
        assert trace.indices[-1] == 1003
        assert list(trace.indices[:-1]) == [100 * k for k in range(1, 11)]

    def test_log_accept_matches_energy_error(self):
        trace = run_mala(STD_1D, ChainConfig(step_size=0.8, iterations=500, seed=8), np.zeros(1))
        assert np.allclose(trace.log_accepts, np.minimum(0.0, -trace.energy_errors))


class TestRwm:
    def test_flat_always_accepts(self):
        t = flat_target(2)
        rng = chain_rng(1)
        rec = rwm_step(t, np.zeros(2), 0.7, rng)
        assert rec.accepted and rec.log_accept_prob == 0.0

    def test_downhill_accepts(self):
        rng = chain_rng(2)
        for _ in range(100):
            rec = rwm_step(STD_1D, np.array([3.0]), 0.5, rng)
            if rec.energy_error < 0:
                assert rec.accepted and rec.log_accept_prob == 0.0

    def test_acceptance_rule_recomputed_from_potentials(self):
        trace = run_rwm(STD_1D, ChainConfig(step_size=1.0, iterations=2000, seed=4), np.zeros(1))
        prev = np.vstack([trace.init_state, trace.states[:-1]])
        gap = STD_1D.potential(trace.proposed) - STD_1D.potential(prev)
        assert np.allclose(trace.energy_errors, gap, atol=1e-12)
        assert np.allclose(trace.log_accepts, np.minimum(0.0, -gap), atol=1e-12)

    def test_zero_gradient_evals(self):
        trace = run_rwm(STD_1D, ChainConfig(step_size=1.0, iterations=500, seed=4), np.zeros(1))
        assert trace.gradient_evals == 0
        assert trace.function_evals == 501

    def test_stationary_variance_long_run(self):
        trace = run_rwm(STD_1D, ChainConfig(step_size=1.0, iterations=10**6, seed=21), np.zeros(1))
        assert 0.97 <= float(np.var(trace.states[:, 0])) <= 1.03

    def test_acceptance_monotone_in_eta(self):
        fracs = []
        for eta in (0.1, 0.5, 1.0, 2.0, 4.0):
            trace = run_rwm(STD_1D, ChainConfig(step_size=eta, iterations=4 * 10**4, seed=31), np.zeros(1))
            fracs.append(float(np.mean(trace.accepted)))
        for a, b in zip(fracs, fracs[1:]):
            assert b <= a + 0.02

    def test_rejects_constraint(self):
        cfg = ChainConfig(step_size=1.0, iterations=10, seed=0, constraint=full_space())
        with pytest.raises(ValueError):
            run_rwm(STD_1D, cfg, np.zeros(1))


class TestConstrainedMala:
    def test_vacuous_constraint_matches_unconstrained(self):
        cfg_free = ChainConfig(step_size=0.5, iterations=2000, seed=12)
        cfg_full = ChainConfig(step_size=0.5, iterations=2000, seed=12, constraint=full_space())
        a = run_mala(STD_1D, cfg_free, np.zeros(1))
        b = run_constrained_mala(STD_1D, cfg_full, np.zeros(1))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.accepted, b.accepted)

    def test_never_leaves_constraint(self):
        g2 = make_gaussian(2, [1.0, 1.0])
        ring = annulus(0.5, 1.0)
        cfg = ChainConfig(step_size=0.3, iterations=5000, seed=13, constraint=ring)
        trace = run_constrained_mala(g2, cfg, np.array([0.75, 0.0]))
        assert np.all(ring.contains(trace.states))

    def test_requires_feasible_init(self):
        ring = annulus(0.5, 1.0)
        cfg = ChainConfig(step_size=0.3, iterations=10, seed=0, constraint=ring)
        with pytest.raises(ValueError):
            run_constrained_mala(make_gaussian(2, [1.0, 1.0]), cfg, np.zeros(2))

    def test_requires_constraint(self):
        cfg = ChainConfig(step_size=0.3, iterations=10, seed=0)
        with pytest.raises(ValueError):
            run_constrained_mala(STD_1D, cfg, np.zeros(1))


class TestExtractMinimizer:
    def test_single_record(self):
        trace = run_mala(STD_1D, ChainConfig(step_size=0.5, iterations=1, seed=3), np.array([2.0]))
        x, u = extract_minimizer(trace)
        assert np.array_equal(x, trace.states[0])
        assert u == trace.potentials[0]

    def test_matches_linear_scan(self):
        trace = run_mala(STD_1D, ChainConfig(step_size=0.7, iterations=3000, seed=14), np.array([3.0]))
        x, u = extract_minimizer(trace)
        best = min(range(len(trace)), key=lambda k: trace.potentials[k])
        assert u == trace.potentials[best]
        assert np.array_equal(x, trace.states[best])

    def test_decreasing_potential_gives_last(self):
        # start far out: the chain at small eta walks inward nearly monotonically
        trace = run_mala(STD_1D, ChainConfig(step_size=0.05, iterations=50, seed=15), np.array([20.0]))
        diffs = np.diff(trace.potentials)
        if np.all(diffs <= 0):
            assert trace.argmin_index == len(trace) - 1


class TestTheorem1StepSize:
    def test_dimension_only(self):
        assert theorem1_step_size(0.0, 0.0, 1.0, 8) == pytest.approx(0.5)

    def test_c3_term_binds(self):
        assert theorem1_step_size(1.0, 0.0, 1.0, 64) == pytest.approx(0.25)

    def test_gradient_bound_factor(self):
        base = theorem1_step_size(0.0, 0.0, 1.0, 8)
        assert theorem1_step_size(0.0, 0.0, 4.0, 8) == pytest.approx(base / 2.0)

    def test_c4_term(self):
        assert theorem1_step_size(0.0, 16.0, 1.0, 1) == pytest.approx(0.5)

    def test_tail_factor_clamped(self):
        # large rates and rates above 1/e collapse to factor 1
        assert theorem1_step_size(0.0, 0.0, 1.0, 8, tail_rate=0.5) == pytest.approx(0.5)
        assert theorem1_step_size(0.0, 0.0, 1.0, 8, tail_rate=2.0) == pytest.approx(0.5)
        # tiny rate engages the reciprocal iterated log
        tiny = theorem1_step_size(0.0, 0.0, 1.0, 8, tail_rate=1e-10)
        expect = 0.5 / math.log(math.log(1e10))
        assert tiny == pytest.approx(expect)

    def test_safety_constant(self):
        assert theorem1_step_size(0.0, 0.0, 1.0, 8, safety_constant=0.5) == pytest.approx(0.25)


class TestWarmness:
    def _grid(self, mass):
        mass = np.asarray(mass, dtype=float)
        return GridDistribution(lower=(0.0,), upper=(1.0,), bins=(mass.size,), mass=mass / mass.sum())

    def test_stationary_start(self):
        pi = self._grid([0.2, 0.3, 0.5])
        assert warmness_on_grid(pi, pi) == pytest.approx(1.0)

    def test_restriction_warmness(self):
        # restricting pi to an event E and renormalizing gives beta = 1 / pi(E)
        pi = self._grid([0.25, 0.25, 0.25, 0.25])
        mu = self._grid([0.5, 0.5, 0.0, 0.0])
        assert warmness_on_grid(mu, pi) == pytest.approx(2.0)

    def test_two_cell_example(self):
        pi = self._grid([0.5, 0.5])
        mu = self._grid([1.0, 0.0])
        assert warmness_on_grid(mu, pi) == pytest.approx(2.0)

    def test_infinite_warmness(self):
        pi = GridDistribution(lower=(0.0,), upper=(1.0,), bins=(2,), mass=np.array([1.0, 0.0]))
        mu = GridDistribution(lower=(0.0,), upper=(1.0,), bins=(2,), mass=np.array([0.0, 1.0]))
        assert warmness_on_grid(mu, pi) == math.inf

    def test_geometry_mismatch(self):
        pi = self._grid([0.5, 0.5])
        mu = self._grid([0.3, 0.3, 0.4])
        with pytest.raises(ValueError):
            warmness_on_grid(mu, pi)


class TestEnsemble:
    def test_matches_stationary_variance(self):
        init = np.zeros((2000, 1))
        res = run_ensemble(STD_1D, "mala", 0.5, 500, init, seed=77)
        assert float(np.var(res.positions)) == pytest.approx(1.0, abs=0.15)
        assert res.gradient_evals == 2 * 2000 * 500

    def test_determinism(self):
        init = np.zeros((200, 1))
        a = run_ensemble(STD_1D, "rwm", 1.0, 100, init, seed=5)
        b = run_ensemble(STD_1D, "rwm", 1.0, 100, init, seed=5)
        assert np.array_equal(a.positions, b.positions)

    def test_constraint_respected(self):
        g2 = make_gaussian(2, [1.0, 1.0])
        ring = annulus(0.5, 1.0)
        init = np.tile(np.array([0.75, 0.0]), (300, 1))
        res = run_ensemble(g2, "mala", 0.3, 200, init, seed=6, constraint=ring)
        assert np.all(ring.contains(res.positions))

    def test_callback_early_stop(self):
        init = np.zeros((150, 1))
        seen = []

        def cb(step, x):
            seen.append(step)
            return step >= 40

        run_ensemble(STD_1D, "mala", 0.5, 1000, init, seed=8, callback=cb, callback_every=20)
        assert seen == [20, 40]


def zero_one_target():
    theta = np.array([1.0, 0.0, 0.0])
    data = sample_sphere_dataset(3, 200, theta, 0.7, seed=3)
    return precondition(make_smoothed_zero_one(data, 400.0, 40.0), 2.0)


def trace_arrays(trace):
    return (trace.states, trace.proposed, trace.energy_errors, trace.log_accepts,
            trace.accepted, trace.potentials,
            trace.gradient_evals, trace.function_evals, trace.oracle_calls)


def assert_traces_identical(a, b):
    for left, right in zip(trace_arrays(a), trace_arrays(b)):
        assert np.array_equal(left, right)


class TestFusedOracleEquivalence:
    """A target without a fused oracle runs the same engine path, bit-for-bit."""

    def test_run_mala(self):
        g = make_gaussian(2, [1.0, 3.0])
        cfg = ChainConfig(step_size=0.6, iterations=400, seed=14, lazy=True)
        assert_traces_identical(run_mala(g, cfg, np.ones(2)),
                                run_mala(dataclasses.replace(g, fused=None), cfg, np.ones(2)))

    def test_run_constrained_mala(self):
        t = zero_one_target()
        ring = annulus(0.5, 1.0)
        cfg = ChainConfig(step_size=0.05, iterations=300, seed=9, lazy=True, constraint=ring)
        init = np.array([0.0, 0.75, 0.0])
        assert_traces_identical(run_constrained_mala(t, cfg, init),
                                run_constrained_mala(dataclasses.replace(t, fused=None), cfg, init))

    def test_run_ensemble(self):
        t = zero_one_target()
        init = np.tile(np.array([0.0, 0.75, 0.0]), (50, 1))
        ring = annulus(0.5, 1.0)
        a = run_ensemble(t, "mala", 0.05, 60, init, seed=4, constraint=ring, lazy=True)
        b = run_ensemble(dataclasses.replace(t, fused=None), "mala", 0.05, 60, init, seed=4,
                         constraint=ring, lazy=True)
        assert np.array_equal(a.positions, b.positions)
        assert (a.accepted_fraction, a.oracle_calls) == (b.accepted_fraction, b.oracle_calls)


def counting(target):
    """Wrap a target's three oracle entry points with call counters."""
    calls = {"potential": 0, "gradient": 0, "fused": 0}

    def counted(key, fn):
        def wrapper(x):
            calls[key] += 1
            return fn(x)
        return wrapper

    wrapped = dataclasses.replace(target, potential=counted("potential", target.potential),
                                  gradient=counted("gradient", target.gradient),
                                  fused=counted("fused", target.value_and_grad))
    return wrapped, calls


class TestOracleCalls:
    def test_one_fused_call_per_non_lazy_mala_step(self):
        t, calls = counting(make_gaussian(1, 1.0))
        trace = run_mala(t, ChainConfig(step_size=0.5, iterations=1000, seed=1, lazy=True), np.zeros(1))
        non_lazy = trace.function_evals - 1
        assert 0 < non_lazy < 1000
        assert calls == {"potential": 1, "gradient": 1, "fused": non_lazy}
        assert trace.oracle_calls == sum(calls.values())
        assert trace.gradient_evals == 2 * non_lazy  # the paper's cost model is unchanged

    def test_constrained_mala(self):
        t, calls = counting(zero_one_target())
        cfg = ChainConfig(step_size=0.05, iterations=200, seed=2, constraint=annulus(0.5, 1.0))
        trace = run_constrained_mala(t, cfg, np.array([0.75, 0.0, 0.0]))
        assert calls == {"potential": 1, "gradient": 1, "fused": 200}
        assert trace.oracle_calls == 202

    def test_rwm_counts_potentials(self):
        t, calls = counting(STD_1D)
        trace = run_rwm(t, ChainConfig(step_size=1.0, iterations=300, seed=3), np.zeros(1))
        assert calls == {"potential": 301, "gradient": 0, "fused": 0}
        assert trace.oracle_calls == trace.function_evals == 301

    def test_ensemble_one_batched_call_per_step(self):
        t, calls = counting(STD_1D)
        res = run_ensemble(t, "mala", 0.5, 40, np.zeros((25, 1)), seed=5)
        assert calls == {"potential": 0, "gradient": 0, "fused": 41}
        assert res.oracle_calls == 25 * 41
        assert res.gradient_evals == 2 * 25 * 40


def _nan_outside(radius):
    """Unit Gaussian whose potential is NaN outside |x| <= radius."""
    def potential(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x[..., 0]) <= radius, 0.5 * np.sum(x * x, axis=-1), np.nan)

    return TargetModel(dimension=1, potential=potential,
                       gradient=lambda x: np.asarray(x, dtype=float), name="nan-outside")


def _inf_gradient_outside(radius):
    def gradient(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= radius, x, np.inf)

    return TargetModel(dimension=1, potential=STD_1D.potential, gradient=gradient, name="inf-grad")


class TestNonFinite:
    def test_scalar_chains_reject_nan_potential(self):
        t = _nan_outside(0.3)
        for runner in (run_mala, run_rwm):
            trace = runner(t, ChainConfig(step_size=0.5, iterations=200, seed=6), np.zeros(1))
            assert np.all(np.isfinite(trace.potentials))
            assert np.all(np.abs(trace.states) <= 0.3)
            nan_steps = np.isnan(trace.energy_errors)
            assert nan_steps.any()
            assert not trace.accepted[nan_steps].any()
            assert np.all(trace.log_accepts[nan_steps] == -math.inf)

    def test_ensemble_rejects_nan_potential(self):
        res = run_ensemble(_nan_outside(0.3), "mala", 0.5, 50, np.zeros((100, 1)), seed=6)
        assert np.all(np.abs(res.positions) <= 0.3)

    def test_engines_raise_alike_on_infinite_gradient(self):
        t = _inf_gradient_outside(0.3)
        pattern = r"^non-finite gradient at step \d+, coordinates \[0\]$"
        with pytest.raises(NumericFailure, match=pattern):
            run_mala(t, ChainConfig(step_size=0.5, iterations=200, seed=6), np.zeros(1))
        with pytest.raises(NumericFailure, match=pattern):
            run_ensemble(t, "mala", 0.5, 200, np.zeros((20, 1)), seed=6)

    def test_ensemble_checks_initial_gradient(self):
        t = _inf_gradient_outside(0.3)
        with pytest.raises(NumericFailure, match=r"at step 1, coordinates \[0\]"):
            run_ensemble(t, "mala", 0.5, 10, np.full((4, 1), 0.5), seed=1)
