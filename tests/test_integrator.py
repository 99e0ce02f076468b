"""Leapfrog step, Hamiltonian, acceptance forms, and the flow oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malakit.integrator import (
    NumericFailure,
    PhaseState,
    leapfrog,
    leapfrog_step,
    log_accept_energy,
    log_accept_proposal_form,
)
from malakit.rng import chain_rng
from malakit.targets import TargetModel, make_gaussian, make_logistic_regression, sample_sphere_dataset


def flat_target(d):
    return TargetModel(
        dimension=d,
        potential=lambda x: np.zeros(np.asarray(x, dtype=float).shape[:-1]),
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        name=f"flat-{d}",
    )


def hamiltonian(target: TargetModel, state: PhaseState) -> float:
    """Total energy U(q) + |p|^2 / 2: the conserved quantity of the flow oracle."""
    if state.position.shape[-1] != target.dimension:
        raise ValueError(f"state dimension {state.position.shape[-1]} != target dimension {target.dimension}")
    return float(target.potential(state.position)) + 0.5 * float(np.dot(state.velocity, state.velocity))


def exact_quadratic_flow(target: TargetModel, state: PhaseState, t: float) -> PhaseState:
    """Closed-form Hamiltonian flow for a diagonal quadratic potential: the
    oracle the leapfrog step is checked against.

    Each coordinate rotates at frequency sqrt(lambda_i); zero-precision
    coordinates drift linearly.
    """
    if target.quadratic_precision is None:
        raise ValueError(f"target {target.name!r} has no analytic flow (not diagonal quadratic)")
    lam = target.quadratic_precision
    q, p = state.position, state.velocity
    omega = np.sqrt(np.where(lam > 0, lam, 1.0))  # never divide by a zero frequency
    c, s = np.cos(omega * t), np.sin(omega * t)
    free = lam <= 0
    q_t = np.where(free, q + p * t, q * c + (p / omega) * s)
    p_t = np.where(free, p, p * c - q * omega * s)
    return PhaseState(q_t, p_t)


class TestHamiltonian:
    def test_flat_zero(self):
        assert hamiltonian(flat_target(2), PhaseState(np.ones(2), np.zeros(2))) == 0.0

    def test_kinetic_only(self):
        g = make_gaussian(1, 1.0)
        assert hamiltonian(g, PhaseState(np.zeros(1), np.ones(1))) == pytest.approx(0.5)

    def test_both_terms(self):
        g = make_gaussian(1, 1.0)
        assert hamiltonian(g, PhaseState(np.array([3.0]), np.array([4.0]))) == pytest.approx(12.5)

    def test_dimension_mismatch(self):
        g = make_gaussian(2, [1.0, 1.0])
        with pytest.raises(ValueError):
            hamiltonian(g, PhaseState(np.zeros(3), np.zeros(3)))


class TestLeapfrogStep:
    def test_free_particle_exact(self):
        t = flat_target(3)
        state = PhaseState(np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.1, -0.7]))
        res = leapfrog_step(t, state, 0.25)
        assert np.array_equal(res.proposal.position, state.position + 0.25 * state.velocity)
        assert np.array_equal(res.proposal.velocity, state.velocity)
        assert res.energy_error == 0.0

    def test_unit_gaussian_hand_values(self):
        g = make_gaussian(1, 1.0)
        res = leapfrog_step(g, PhaseState(np.zeros(1), np.ones(1)), 0.1)
        assert float(res.proposal.position[0]) == pytest.approx(0.1, rel=1e-15)
        assert float(res.proposal.velocity[0]) == pytest.approx(0.995, rel=1e-15)
        assert res.energy_error == pytest.approx(1.25e-5, rel=1e-9)

    def test_error_shrinks_like_eta_cubed_or_better(self):
        g = make_gaussian(1, 1.0)
        res = leapfrog_step(g, PhaseState(np.zeros(1), np.ones(1)), 0.01)
        assert res.energy_error == pytest.approx(1.25e-9, rel=1e-6)

    def test_nonfinite_gradient_raises(self):
        bad = TargetModel(
            dimension=2,
            potential=lambda x: np.zeros(np.asarray(x).shape[:-1]),
            gradient=lambda x: np.array([np.nan, 0.0]),
            name="broken",
        )
        with pytest.raises(NumericFailure) as err:
            leapfrog_step(bad, PhaseState(np.zeros(2), np.zeros(2)), 0.1)
        assert 0 in err.value.coordinates

    def test_reversibility(self):
        data = sample_sphere_dataset(4, 20, np.array([1.0, 0, 0, 0]), 0.7, 3)
        t = make_logistic_regression(data, 1.0)
        rng = chain_rng(7)
        for _ in range(50):
            state = PhaseState(rng.standard_normal(4), rng.standard_normal(4))
            fwd = leapfrog_step(t, state, 0.2)
            back = leapfrog_step(t, PhaseState(fwd.proposal.position, -fwd.proposal.velocity), 0.2)
            assert np.max(np.abs(back.proposal.position - state.position)) <= 1e-10
            assert np.max(np.abs(back.proposal.velocity + state.velocity)) <= 1e-10


    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "logistic"]), d=st.integers(1, 5), n=st.integers(1, 6),
           per_row=st.booleans(), seed=st.integers(0, 2**31))
    def test_batch_rows_equal_single_steps(self, kind, d, n, per_row, seed):
        # The dataset target is batched through its row-by-row copy: a
        # vectorized x @ a over n > 1 rows is a matrix product that BLAS may
        # round differently from the one-row product.
        rng = chain_rng(seed)
        if kind == "gaussian":
            target = make_gaussian(d, 0.5 + rng.random(d))
            batched = target
        else:
            data = sample_sphere_dataset(d, 20, np.eye(d)[0], 0.7, seed)
            target = make_logistic_regression(data, 1.0)
            batched = dataclasses.replace(target, vectorized=False)
        x, v = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        eta = 0.01 + 0.49 * rng.random((n, 1)) if per_row else 0.3
        _, value_and_grad = batched.batch_oracles()
        pot, grad = value_and_grad(x)
        x_hat, v_hat, pot_hat, grad_hat, err = leapfrog(value_and_grad, x, v, pot, grad, eta)
        for j in range(n):
            res = leapfrog_step(target, PhaseState(x[j], v[j]), float(eta[j, 0]) if per_row else eta)
            assert np.array_equal(x_hat[j], res.proposal.position)
            assert np.array_equal(v_hat[j], res.proposal.velocity)
            assert err[j] == res.energy_error
            assert np.array_equal(grad_hat[j], target.gradient(res.proposal.position))


class TestExactFlow:
    def test_identity_at_zero(self):
        g = make_gaussian(2, [1.0, 4.0])
        s = PhaseState(np.array([1.0, 2.0]), np.array([-1.0, 0.5]))
        out = exact_quadratic_flow(g, s, 0.0)
        assert np.allclose(out.position, s.position)
        assert np.allclose(out.velocity, s.velocity)

    def test_quarter_rotation(self):
        g = make_gaussian(1, 1.0)
        out = exact_quadratic_flow(g, PhaseState(np.zeros(1), np.ones(1)), math.pi / 2.0)
        assert float(out.position[0]) == pytest.approx(1.0, abs=1e-12)
        assert float(out.velocity[0]) == pytest.approx(0.0, abs=1e-12)

    def test_conserves_hamiltonian(self):
        g = make_gaussian(3, [0.5, 1.0, 2.0])
        rng = chain_rng(5)
        for _ in range(40):
            s = PhaseState(rng.standard_normal(3), rng.standard_normal(3))
            t = float(rng.random() * 10.0)
            before = hamiltonian(g, s)
            after = hamiltonian(g, exact_quadratic_flow(g, s, t))
            assert abs(after - before) <= 1e-12 * (1.0 + abs(before))

    def test_requires_analytic_flow(self):
        with pytest.raises(ValueError):
            exact_quadratic_flow(flat_target(1), PhaseState(np.zeros(1), np.zeros(1)), 1.0)

    def test_leapfrog_tracks_flow_at_third_order(self):
        g = make_gaussian(1, 1.0)
        rng = chain_rng(6)
        for eta in (0.1, 0.05, 0.025):
            for _ in range(20):
                s = PhaseState(rng.standard_normal(1), rng.standard_normal(1))
                approx = leapfrog_step(g, s, eta).proposal
                exact = exact_quadratic_flow(g, s, eta)
                scale = 1.0 + float(np.linalg.norm(np.concatenate([s.position, s.velocity])))
                err = max(float(np.max(np.abs(approx.position - exact.position))),
                          float(np.max(np.abs(approx.velocity - exact.velocity))))
                assert err <= 10.0 * eta**3 * scale


class TestAcceptanceForms:
    def test_log_accept_energy_values(self):
        assert log_accept_energy(0.0) == 0.0
        assert log_accept_energy(1.25e-5) == pytest.approx(-1.25e-5)
        assert log_accept_energy(-3.0) == 0.0

    def test_rejects_nonfinite(self):
        # The engines' rule: a NaN energy error is a certain rejection.
        assert log_accept_energy(float("nan")) == -np.inf
        assert log_accept_energy(np.inf) == -np.inf
        assert np.array_equal(log_accept_energy(np.array([np.nan, 2.0, -np.inf])), [-np.inf, -2.0, 0.0])

    def test_identity_proposal(self):
        g = make_gaussian(1, 1.0)
        assert log_accept_proposal_form(g, np.array([0.7]), np.array([0.7]), 0.3) == 0.0

    def test_matches_energy_form_on_hand_example(self):
        g = make_gaussian(1, 1.0)
        res = leapfrog_step(g, PhaseState(np.zeros(1), np.ones(1)), 0.1)
        a = log_accept_energy(res.energy_error)
        b = log_accept_proposal_form(g, np.zeros(1), res.proposal.position, 0.1)
        assert a == pytest.approx(-1.25e-5, rel=1e-9)
        assert abs(a - b) <= 1e-10

    def test_forms_agree_on_random_instances(self):
        # smaller version of the acceptance gate; the 1e4-instance run lives there
        data = sample_sphere_dataset(5, 20, np.eye(5)[0], 0.7, 2)
        targets = [make_gaussian(5, [0.5, 1.0, 2.0, 1.0, 1.0]), make_logistic_regression(data, 1.0)]
        rng = chain_rng(17)
        for _ in range(500):
            t = targets[int(rng.integers(2))]
            x, v = rng.standard_normal(5), rng.standard_normal(5)
            eta = 0.01 + 0.49 * float(rng.random())
            res = leapfrog_step(t, PhaseState(x, v), eta)
            a = log_accept_energy(res.energy_error)
            b = log_accept_proposal_form(t, x, res.proposal.position, eta)
            assert abs(a - b) <= 1e-10
