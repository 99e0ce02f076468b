"""Chain runners: determinism, stationarity, accounting, and schedules."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malakit import chains
from malakit.chains import (
    _CSV_BLOCK_ROWS,
    ChainConfig,
    ChainTrace,
    _Draws,
    extract_minimizer,
    run_chains,
    run_constrained_mala,
    run_ensemble,
    run_mala,
    run_rwm,
    theorem1_step_size,
)
from malakit.diagnostics import energy_error_scaling, transition_matrix_1d
from malakit.grids import GridDistribution, grid_truth
from malakit.integrator import NumericFailure, log_accept_proposal_form
from malakit.regularity import constraint_exit_estimate
from malakit.rng import chain_rng
from malakit.targets import (
    TargetModel,
    annulus,
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
        trace = run_mala(flat_target(2), ChainConfig(step_size=0.3, iterations=200, seed=0), np.zeros(2))
        assert trace.accepted.all()
        assert np.all(trace.energy_errors == 0.0)
        # every proposal is accepted, so the moves are the proposals: Gaussian with scale eta
        moves = np.diff(np.vstack([trace.init_state, trace.states]), axis=0)
        assert np.std(moves) == pytest.approx(0.3, rel=0.15)

    def test_tiny_step_accepts_almost_surely(self):
        trace = run_mala(STD_1D, ChainConfig(step_size=1e-8, iterations=10**4, seed=3), np.zeros(1))
        assert np.all(np.exp(trace.log_accepts) >= 1.0 - 1e-6)

    def test_stationary_moments(self):
        trace = run_mala(STD_1D, ChainConfig(step_size=0.5, iterations=10**5, seed=12), np.zeros(1))
        xs = trace.states[:, 0]
        # The mean of these 1e5 steps has sd 0.0128 over seeds 100-139: the band is about 4 sd.
        assert -0.05 <= float(np.mean(xs)) <= 0.05
        assert 0.95 <= float(np.var(xs)) <= 1.05


class TestRunMala:
    def test_single_iteration_matches_step(self):
        cfg = ChainConfig(step_size=0.4, iterations=1, seed=99)
        x, eta = np.array([0.5]), 0.4
        trace = run_mala(STD_1D, cfg, x)
        # One transition written out: the velocity from stream 1, the
        # leapfrog, then the uniform from stream 2.
        v = chain_rng(99, 1).standard_normal(1)
        x_hat = x + eta * v - 0.5 * eta * eta * STD_1D.gradient(x)
        v_hat = v - 0.5 * eta * (STD_1D.gradient(x) + STD_1D.gradient(x_hat))
        err = (STD_1D.potential(x_hat) + 0.5 * (v_hat @ v_hat)) - (STD_1D.potential(x) + 0.5 * (v @ v))
        accepted = np.log(1.0 - chain_rng(99, 2).random()) <= min(0.0, -err)
        assert accepted  # so the recorded state is the proposal
        assert trace.energy_errors[0] == err
        assert bool(trace.accepted[0])
        assert np.array_equal(trace.states[0], x_hat)

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
        trace = run_rwm(flat_target(2), ChainConfig(step_size=0.7, iterations=50, seed=1), np.zeros(2))
        assert trace.accepted.all() and np.all(trace.log_accepts == 0.0)

    def test_downhill_accepts(self):
        trace = run_rwm(STD_1D, ChainConfig(step_size=0.5, iterations=100, seed=2), np.array([3.0]))
        downhill = trace.energy_errors < 0
        assert downhill.any()
        assert trace.accepted[downhill].all() and np.all(trace.log_accepts[downhill] == 0.0)

    def test_acceptance_rule_recomputed_from_potentials(self):
        trace = run_rwm(STD_1D, ChainConfig(step_size=1.0, iterations=2000, seed=4), np.zeros(1))
        prev = np.vstack([trace.init_state, trace.states[:-1]])
        proposed = prev + 1.0 * chain_rng(4, 1).standard_normal((2000, 1))  # step i uses velocity i
        accepted = trace.accepted[:, None]
        assert np.array_equal(trace.states, np.where(accepted, proposed, prev))
        gap = STD_1D.potential(proposed) - STD_1D.potential(prev)
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

    def test_rejects_constraint(self, full_space):
        cfg = ChainConfig(step_size=1.0, iterations=10, seed=0, constraint=full_space())
        with pytest.raises(ValueError):
            run_rwm(STD_1D, cfg, np.zeros(1))


class TestConstrainedMala:
    def test_vacuous_constraint_matches_unconstrained(self, full_space):
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

    def test_safety_constant(self):
        assert theorem1_step_size(0.0, 0.0, 1.0, 8, safety_constant=0.5) == pytest.approx(0.25)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("which", ["c3", "c4"])
    def test_regularity_constants_finite_and_nonnegative(self, which, bad):
        # A NaN constant gave a NaN step size at an earlier version.
        constants = {"c3": 1.0, "c4": 1.0, which: bad}
        with pytest.raises(ValueError, match="finite and nonnegative"):
            theorem1_step_size(constants["c3"], constants["c4"], 1.0, 8)


# Every entry point that takes a step size, called with ``eta`` in that place.
STEP_SIZE_ENTRIES = {
    "ChainConfig": lambda eta: ChainConfig(step_size=eta, iterations=10, seed=0),
    "run_ensemble": lambda eta: run_ensemble(STD_1D, "rwm", eta, 10, np.zeros((4, 1)), 0),
    "transition_matrix_1d": lambda eta: transition_matrix_1d(STD_1D, "mala", eta,
                                                             grid_truth(STD_1D, (-6.0, 6.0), 20)),
    "log_accept_proposal_form": lambda eta: log_accept_proposal_form(STD_1D, np.zeros(1), np.ones(1), eta),
    "constraint_exit_estimate": lambda eta: constraint_exit_estimate(
        make_gaussian(2, 1.0), annulus(0.5, 1.0), eta, np.array([0.75, 0.0]), 100, 0),
    "energy_error_scaling": lambda eta: energy_error_scaling(STD_1D, [eta, 0.1, 0.01], 10, 0),
    "theorem1_step_size safety": lambda eta: theorem1_step_size(1.0, 1.0, 1.0, 8, eta),
    "theorem1_step_size gradient_bound": lambda eta: theorem1_step_size(1.0, 1.0, eta, 8),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("entry", sorted(STEP_SIZE_ENTRIES))
def test_step_size_must_be_finite_and_positive(entry, bad):
    # NaN and inf passed an ``eta <= 0`` check at an earlier version: RWM
    # ran without moving, and the exit estimate read 0.0.
    with pytest.raises(ValueError, match="finite and positive"):
        STEP_SIZE_ENTRIES[entry](bad)


class TestWarmness:
    def _grid(self, mass):
        mass = np.asarray(mass, dtype=float)
        return GridDistribution(lower=(0.0,), upper=(1.0,), bins=(mass.size,), mass=mass / mass.sum())

    def test_stationary_start(self, warmness_on_grid):
        pi = self._grid([0.2, 0.3, 0.5])
        assert warmness_on_grid(pi, pi) == pytest.approx(1.0)

    def test_restriction_warmness(self, warmness_on_grid):
        # restricting pi to an event E and renormalizing gives beta = 1 / pi(E)
        pi = self._grid([0.25, 0.25, 0.25, 0.25])
        mu = self._grid([0.5, 0.5, 0.0, 0.0])
        assert warmness_on_grid(mu, pi) == pytest.approx(2.0)

    def test_two_cell_example(self, warmness_on_grid):
        pi = self._grid([0.5, 0.5])
        mu = self._grid([1.0, 0.0])
        assert warmness_on_grid(mu, pi) == pytest.approx(2.0)

    def test_infinite_warmness(self, warmness_on_grid):
        pi = GridDistribution(lower=(0.0,), upper=(1.0,), bins=(2,), mass=np.array([1.0, 0.0]))
        mu = GridDistribution(lower=(0.0,), upper=(1.0,), bins=(2,), mass=np.array([0.0, 1.0]))
        assert warmness_on_grid(mu, pi) == math.inf

    def test_geometry_mismatch(self, warmness_on_grid):
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
    return (trace.indices, trace.states, trace.energy_errors, trace.log_accepts,
            trace.accepted, trace.potentials,
            trace.gradient_evals, trace.function_evals)


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
        a = run_ensemble(t, "mala", 0.05, 60, init, seed=4, constraint=ring)
        b = run_ensemble(dataclasses.replace(t, fused=None), "mala", 0.05, 60, init, seed=4,
                         constraint=ring)
        assert np.array_equal(a.positions, b.positions)
        assert (a.accepted_fraction, a.function_evals) == (b.accepted_fraction, b.function_evals)


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
        assert calls == {"potential": 0, "gradient": 0, "fused": non_lazy + 1}  # +1: the start
        assert trace.function_evals == sum(calls.values())
        assert trace.gradient_evals == 2 * non_lazy  # the paper's cost model is unchanged

    def test_constrained_mala(self):
        t, calls = counting(zero_one_target())
        cfg = ChainConfig(step_size=0.05, iterations=200, seed=2, constraint=annulus(0.5, 1.0))
        trace = run_constrained_mala(t, cfg, np.array([0.75, 0.0, 0.0]))
        assert calls == {"potential": 0, "gradient": 0, "fused": 201}
        assert trace.function_evals == 201

    def test_rwm_counts_potentials(self):
        t, calls = counting(STD_1D)
        trace = run_rwm(t, ChainConfig(step_size=1.0, iterations=300, seed=3), np.zeros(1))
        assert calls == {"potential": 301, "gradient": 0, "fused": 0}
        assert trace.function_evals == 301

    def test_ensemble_one_batched_call_per_step(self):
        t, calls = counting(STD_1D)
        res = run_ensemble(t, "mala", 0.5, 40, np.zeros((25, 1)), seed=5)
        assert calls == {"potential": 0, "gradient": 0, "fused": 41}
        assert res.function_evals == 25 * 41
        assert res.gradient_evals == 2 * 25 * 40


def _nan_outside(radius):
    """Unit Gaussian whose potential is NaN outside |x| <= radius."""
    def potential(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x[..., 0]) <= radius, 0.5 * np.sum(x * x, axis=-1), np.nan)

    return TargetModel(dimension=1, potential=potential,
                       gradient=lambda x: np.asarray(x, dtype=float), name="nan-outside")


def _inf_gradient_outside(radius, d=1):
    """Standard Gaussian whose gradient is inf in each coordinate beyond ``radius``."""
    def gradient(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= radius, x, np.inf)

    return TargetModel(dimension=d, potential=make_gaussian(d, 1.0).potential, gradient=gradient,
                       name="inf-grad")


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
        # An ensemble of one draws what the chain of its seed draws.
        with pytest.raises(NumericFailure) as solo:
            run_mala(t, ChainConfig(step_size=0.2, iterations=400, seed=6), np.zeros(1))
        with pytest.raises(NumericFailure) as one:
            run_ensemble(t, "mala", 0.2, 400, np.zeros((1, 1)), seed=6)
        assert str(one.value) == str(solo.value)

    def test_ensemble_checks_initial_gradient(self):
        t = _inf_gradient_outside(0.3)
        with pytest.raises(NumericFailure, match=r"at step 1, coordinates \[0\]"):
            run_ensemble(t, "mala", 0.5, 10, np.full((4, 1), 0.5), seed=1)


def lockstep_case(kind, d, configs_args, lazy, record_every, iterations):
    constraint = annulus(0.5, 1.0) if kind == "constrained-mala" else None
    configs = [ChainConfig(step_size=eta, iterations=iterations, seed=seed, lazy=lazy,
                           constraint=constraint, record_every=record_every)
               for eta, seed in configs_args]
    inits = np.zeros((len(configs), d))
    inits[:, 0] = 0.6 + 0.1 * np.arange(len(configs))  # inside the annulus
    return configs, inits


class TestLockstep:
    """Row j of a lockstep batch is the chain of row j run alone."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]),
           precision=st.lists(st.floats(0.25, 4.0), min_size=3, max_size=3),
           kind=st.sampled_from(["mala", "rwm", "constrained-mala"]),
           cells=st.lists(st.tuples(st.floats(0.01, 3.0), st.integers(0, 2**63 - 1)), min_size=2, max_size=4),
           lazy=st.booleans(), record_every=st.integers(1, 7), iterations=st.integers(1, 40))
    def test_rows_equal_solo_runs(self, d, precision, kind, cells, lazy, record_every, iterations):
        target = make_gaussian(d, precision[:d])
        configs, inits = lockstep_case(kind, d, cells, lazy, record_every, iterations)
        batch = run_chains(target, kind, configs, inits)
        for j, config in enumerate(configs):
            (solo,) = run_chains(target, kind, [config], inits[j:j + 1])
            assert_traces_identical(batch[j], solo)

    def test_zero_one_rows_match_solo_runs(self):
        # A matrix product over several rows may round differently from one row.
        t = zero_one_target()
        configs, inits = lockstep_case("constrained-mala", 3, [(0.05, 1), (0.1, 2), (0.02, 3)],
                                       lazy=True, record_every=1, iterations=300)
        batch = run_chains(t, "constrained-mala", configs, inits)
        for j, config in enumerate(configs):
            solo = run_constrained_mala(t, config, inits[j])
            assert np.array_equal(batch[j].accepted, solo.accepted)
            for got, want in zip(trace_arrays(batch[j])[1:3] + (batch[j].potentials,),
                                 trace_arrays(solo)[1:3] + (solo.potentials,)):
                assert np.allclose(got, want, rtol=0.0, atol=1e-9)

    def test_failed_row_leaves_the_batch(self):
        t = _inf_gradient_outside(5.0)
        configs, inits = lockstep_case("mala", 1, [(0.5, 1), (50.0, 2), (0.7, 3)],
                                       lazy=False, record_every=3, iterations=200)
        batch = run_chains(t, "mala", configs, inits)
        assert isinstance(batch[1], NumericFailure)
        assert str(batch[1]) == "non-finite gradient at step 1, coordinates [0]"  # its first proposal
        with pytest.raises(NumericFailure) as solo_failure:
            run_mala(t, configs[1], inits[1])
        assert str(batch[1]) == str(solo_failure.value)
        for j in (0, 2):
            assert_traces_identical(batch[j], run_mala(t, configs[j], inits[j]))

    def test_row_by_row_target(self, row_by_row):
        g = make_gaussian(2, [1.0, 3.0])
        configs, inits = lockstep_case("mala", 2, [(0.4, 5), (0.9, 6)], lazy=True,
                                       record_every=2, iterations=100)
        rowwise = run_chains(row_by_row(g), "mala", configs, inits)
        for a, b in zip(run_chains(g, "mala", configs, inits), rowwise):
            assert_traces_identical(a, b)

    def test_configs_must_share_the_schedule(self):
        configs = [ChainConfig(step_size=0.5, iterations=10, seed=1),
                   ChainConfig(step_size=0.5, iterations=20, seed=2)]
        with pytest.raises(ValueError, match="lockstep"):
            run_chains(STD_1D, "mala", configs, np.zeros((2, 1)))


class TestOneEngine:
    """One draw source and one failure rule for every engine."""

    @pytest.mark.parametrize("block", [1, 7, 2**14])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_draws_do_not_depend_on_the_refill_size(self, monkeypatch, block, lazy):
        monkeypatch.setattr(chains, "_DRAW_BLOCK", block)
        seeds, width, d, steps = [3, 4, 5], 2, 3, 40
        draws = _Draws(seeds, width, d, lazy)
        got = [draws() for _ in range(steps)]
        # The reference draws each stream in one call.
        def each(purpose, draw):
            return np.concatenate([draw(chain_rng(s, purpose)) for s in seeds], axis=1)

        move = each(0, lambda rng: rng.random((steps, width))) >= 0.5
        v = each(1, lambda rng: rng.standard_normal((steps, width, d)))
        log_u = np.log(1.0 - each(2, lambda rng: rng.random((steps, width))))
        for i, (move_i, v_i, log_u_i) in enumerate(got):
            assert np.array_equal(move_i, move[i]) if lazy else move_i is None
            assert np.array_equal(v_i, v[i]) and np.array_equal(log_u_i, log_u[i])

    @pytest.mark.parametrize("block", [1, 7])
    def test_runs_do_not_depend_on_the_refill_size(self, monkeypatch, block):
        g = make_gaussian(2, [1.0, 3.0])
        configs, inits = lockstep_case("mala", 2, [(0.4, 5), (0.9, 6), (0.2, 7)], lazy=True,
                                       record_every=3, iterations=100)
        want = (run_chains(g, "mala", configs, inits), run_ensemble(g, "rwm", 0.8, 50, inits, seed=8))
        monkeypatch.setattr(chains, "_DRAW_BLOCK", block)
        got = (run_chains(g, "mala", configs, inits), run_ensemble(g, "rwm", 0.8, 50, inits, seed=8))
        for a, b in zip(got[0], want[0]):
            assert_traces_identical(a, b)
        assert np.array_equal(got[1].positions, want[1].positions)
        assert got[1].accepted_fraction == want[1].accepted_fraction

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), kind=st.sampled_from(["mala", "rwm", "constrained-mala"]),
           eta=st.floats(0.01, 3.0), seed=st.integers(0, 2**63 - 1), iterations=st.integers(1, 60))
    def test_ensemble_of_one_is_the_chain(self, d, kind, eta, seed, iterations):
        target = make_gaussian(d, [1.0, 2.0, 0.5][:d])
        constraint = annulus(0.5, 1.0) if kind == "constrained-mala" else None
        init = np.zeros(d)
        init[0] = 0.7  # inside the annulus
        runner = {"mala": run_mala, "rwm": run_rwm, "constrained-mala": run_constrained_mala}[kind]
        trace = runner(target, ChainConfig(step_size=eta, iterations=iterations, seed=seed,
                                           constraint=constraint), init)
        res = run_ensemble(target, "rwm" if kind == "rwm" else "mala", eta, iterations, init[None, :], seed,
                           constraint=constraint)
        assert np.array_equal(res.positions[0], trace.states[-1])
        assert res.accepted_fraction == np.mean(trace.accepted)
        assert (res.gradient_evals, res.function_evals) == (trace.gradient_evals, trace.function_evals)

    @settings(max_examples=30, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]), data=st.data())
    def test_failing_row_raises_its_solo_error(self, d, data):
        # Rows started where the gradient is inf fail at the start check;
        # the others stay far inside the radius for the whole run.
        rows = data.draw(st.lists(st.integers(0, 19), min_size=1, max_size=4, unique=True))
        inits = np.zeros((20, d))
        for j in rows:
            inits[j] = np.where(data.draw(st.lists(st.booleans(), min_size=d, max_size=d).filter(any)), 6.0, 0.0)
        t = _inf_gradient_outside(5.0, d)
        with pytest.raises(NumericFailure) as solo:
            run_mala(t, ChainConfig(step_size=0.5, iterations=30, seed=3), inits[min(rows)])
        with pytest.raises(NumericFailure) as batch:
            run_ensemble(t, "mala", 0.5, 30, inits, seed=3)
        assert str(batch.value) == str(solo.value)
        assert batch.value.coordinates == solo.value.coordinates

    @pytest.mark.parametrize("kind", ["mala", "rwm"])
    @pytest.mark.parametrize("start, ring, message", [
        ([math.nan, 0.7], False, "init must be finite"),
        ([0.7, -math.inf], False, "init must be finite"),
        ([math.nan, 0.7], True, "init must be finite"),
        ([0.0, 0.0], True, "initial point must satisfy the constraint"),
        ([0.3, 0.3], True, "initial point must satisfy the constraint"),
        ([1.2, 0.0], True, "initial point must satisfy the constraint"),
    ], ids=["nan", "inf", "nan-in-ring", "origin", "in-the-hole", "outside"])
    def test_engines_check_starts_alike(self, kind, start, ring, message):
        # At an earlier version run_ensemble checked only the shape: an RWM
        # replica started at NaN stayed NaN, and an ensemble started at the
        # origin ran under the annulus.
        g = make_gaussian(2, 1.0)
        constraint = annulus(0.5, 1.0) if ring else None
        starts = np.array([[0.7, 0.0], start])
        configs = [ChainConfig(step_size=0.3, iterations=5, seed=s, constraint=constraint) for s in (1, 2)]
        with pytest.raises(ValueError) as chain:  # only constrained-mala chains take a constraint
            run_chains(g, "constrained-mala" if ring else kind, configs, starts)
        with pytest.raises(ValueError) as ensemble:
            run_ensemble(g, kind, 0.3, 5, starts, seed=1, constraint=constraint)
        assert str(chain.value) == str(ensemble.value) == message

    @pytest.mark.parametrize("shape", [(0, 1), (3,), (3, 2)])
    def test_ensemble_refuses_starts_of_the_wrong_shape(self, shape):
        # No replicas divided by zero in the draw source at an earlier version.
        with pytest.raises(ValueError, match=r"starts must have shape \(n >= 1, 1\)"):
            run_ensemble(STD_1D, "mala", 0.5, 5, np.zeros(shape), seed=1)

    def test_ensemble_raises_its_earliest_failure(self):
        t = _inf_gradient_outside(2.0)
        with pytest.raises(NumericFailure) as full:
            run_ensemble(t, "mala", 0.5, 300, np.zeros((20, 1)), seed=6)
        step = int(str(full.value).split()[4].rstrip(","))
        assert step > 1
        run_ensemble(t, "mala", 0.5, step - 1, np.zeros((20, 1)), seed=6)  # no row fails before it
        with pytest.raises(NumericFailure) as cut:
            run_ensemble(t, "mala", 0.5, step, np.zeros((20, 1)), seed=6)
        assert str(cut.value) == str(full.value)


def reference_to_csv(trace, path) -> Path:
    """The row-at-a-time writer that ``ChainTrace.to_csv`` must match byte for byte."""
    path = Path(path)
    d = trace.states.shape[1]
    header = "i,accepted,energy_error,log_accept,potential," + ",".join(f"x_{j}" for j in range(d))
    lines = [header]
    for k in range(len(trace.indices)):
        fields = [str(int(trace.indices[k])), str(int(trace.accepted[k])),
                  repr(float(trace.energy_errors[k])), repr(float(trace.log_accepts[k])),
                  repr(float(trace.potentials[k]))]
        fields.extend(repr(float(v)) for v in trace.states[k])
        lines.append(",".join(fields))
    path.write_text("\n".join(lines) + "\n")
    return path


def synthetic_trace(indices, values, accepted) -> ChainTrace:
    """A trace whose row k is ``values[k] = (energy error, potential, x_0..x_{d-1})``."""
    states = values[:, 2:]
    return ChainTrace(np.zeros(states.shape[1]), indices, states, values[:, 0], accepted,
                      values[:, 1], gradient_evals=0, function_evals=0)


EDGE_FLOATS = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                               5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 1.0, 0.1])


@st.composite
def csv_traces(draw):
    """Traces of 1 row, one block and one block + 1, mixing edge floats and
    random ones, with rows repeated in runs as rejected and lazy steps do."""
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.sampled_from([1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1]))
    pool = draw(st.lists(st.lists(st.one_of(EDGE_FLOATS, st.floats()), min_size=d + 2, max_size=d + 2),
                         min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = np.vstack([np.array(pool, dtype=float), rng.standard_normal((n, d + 2))])
    picks = np.where(rng.random(n) < 0.5, rng.integers(len(pool), size=n), len(pool) + np.arange(n))
    runs = np.repeat(picks, rng.geometric(draw(st.sampled_from([0.02, 0.5, 1.0])), size=n))[:n]
    indices = np.cumsum(rng.integers(1, 4, size=n))
    return synthetic_trace(indices, table[runs], rng.random(n) < 0.5)


def _same_bits(got, want) -> bool:
    """Bit-equal, sign of zero included; any NaN matches any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all((got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))))


class TestToCsv:
    @settings(max_examples=60, deadline=None)
    @given(trace=csv_traces())
    def test_bytes_equal_the_reference_and_parse_back(self, trace, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("csv")
        written = trace.to_csv(tmp / "trace.csv").read_bytes()
        assert written == reference_to_csv(trace, tmp / "reference.csv").read_bytes()
        _, *rows = written.decode().splitlines()
        assert len(rows) == len(trace)
        cells = [row.split(",") for row in rows]
        assert [int(c[0]) for c in cells] == trace.indices.tolist()
        assert [c[1] for c in cells] == ["1" if a else "0" for a in trace.accepted]
        parsed = np.array([[float(v) for v in c[2:]] for c in cells])
        want = np.column_stack([trace.energy_errors, trace.log_accepts, trace.potentials, trace.states])
        assert _same_bits(parsed, want)

    def test_memory_does_not_grow_with_the_trace(self, tmp_path):
        n = 32 * _CSV_BLOCK_ROWS
        rng = np.random.default_rng(4)
        trace = synthetic_trace(np.arange(1, n + 1), rng.standard_normal((n, 3)), rng.random(n) < 0.9)
        tracemalloc.start()
        try:
            size = trace.to_csv(tmp_path / "trace.csv").stat().st_size
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size / 2
