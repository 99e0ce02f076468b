"""Leapfrog step, Hamiltonian, acceptance forms, and the flow oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malakit.integrator import leapfrog, log_accept_energy, log_accept_proposal_form
from malakit.rng import chain_rng
from malakit.targets import TargetModel, make_gaussian, make_logistic_regression, sample_sphere_dataset


def flat_target(d):
    return TargetModel(
        dimension=d,
        potential=lambda x: np.zeros(np.asarray(x, dtype=float).shape[:-1]),
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        name=f"flat-{d}",
    )


def step(target: TargetModel, x, v, eta):
    """One leapfrog step from the phase point ``(x, v)``, a batch of one:
    ``(x_hat, v_hat, energy_error)``."""
    x, v = np.asarray(x, dtype=float)[None], np.asarray(v, dtype=float)[None]
    x_hat, v_hat, _, _, err = leapfrog(target.value_and_grad, x, v, *target.value_and_grad(x), eta)
    return x_hat[0], v_hat[0], float(err[0])


def hamiltonian(target: TargetModel, q, p) -> float:
    """Total energy U(q) + |p|^2 / 2: the conserved quantity of the flow oracle."""
    if q.shape[-1] != target.dimension:
        raise ValueError(f"state dimension {q.shape[-1]} != target dimension {target.dimension}")
    return float(target.potential(q)) + 0.5 * float(np.dot(p, p))


def exact_quadratic_flow(target: TargetModel, q, p, t: float):
    """Closed-form Hamiltonian flow for a diagonal quadratic potential: the
    oracle the leapfrog step is checked against.  Returns ``(q_t, p_t)``.

    Each coordinate rotates at frequency sqrt(lambda_i); zero-precision
    coordinates drift linearly.
    """
    if target.quadratic_precision is None:
        raise ValueError(f"target {target.name!r} has no analytic flow (not diagonal quadratic)")
    lam = target.quadratic_precision
    omega = np.sqrt(np.where(lam > 0, lam, 1.0))  # never divide by a zero frequency
    c, s = np.cos(omega * t), np.sin(omega * t)
    free = lam <= 0
    q_t = np.where(free, q + p * t, q * c + (p / omega) * s)
    p_t = np.where(free, p, p * c - q * omega * s)
    return q_t, p_t


class TestHamiltonian:
    def test_flat_zero(self):
        assert hamiltonian(flat_target(2), np.ones(2), np.zeros(2)) == 0.0

    def test_kinetic_only(self):
        g = make_gaussian(1, 1.0)
        assert hamiltonian(g, np.zeros(1), np.ones(1)) == pytest.approx(0.5)

    def test_both_terms(self):
        g = make_gaussian(1, 1.0)
        assert hamiltonian(g, np.array([3.0]), np.array([4.0])) == pytest.approx(12.5)

    def test_dimension_mismatch(self):
        g = make_gaussian(2, [1.0, 1.0])
        with pytest.raises(ValueError):
            hamiltonian(g, np.zeros(3), np.zeros(3))


class TestLeapfrogStep:
    def test_free_particle_exact(self):
        t = flat_target(3)
        x, v = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.1, -0.7])
        x_hat, v_hat, err = step(t, x, v, 0.25)
        assert np.array_equal(x_hat, x + 0.25 * v)
        assert np.array_equal(v_hat, v)
        assert err == 0.0

    def test_unit_gaussian_hand_values(self):
        g = make_gaussian(1, 1.0)
        x_hat, v_hat, err = step(g, np.zeros(1), np.ones(1), 0.1)
        assert float(x_hat[0]) == pytest.approx(0.1, rel=1e-15)
        assert float(v_hat[0]) == pytest.approx(0.995, rel=1e-15)
        assert err == pytest.approx(1.25e-5, rel=1e-9)

    def test_error_shrinks_like_eta_cubed_or_better(self):
        g = make_gaussian(1, 1.0)
        _, _, err = step(g, np.zeros(1), np.ones(1), 0.01)
        assert err == pytest.approx(1.25e-9, rel=1e-6)

    def test_reversibility(self):
        data = sample_sphere_dataset(4, 20, 0.7, 3)
        t = make_logistic_regression(data, 1.0)
        rng = chain_rng(7)
        for _ in range(50):
            x, v = rng.standard_normal(4), rng.standard_normal(4)
            x_fwd, v_fwd, _ = step(t, x, v, 0.2)
            x_back, v_back, _ = step(t, x_fwd, -v_fwd, 0.2)
            assert np.max(np.abs(x_back - x)) <= 1e-10
            assert np.max(np.abs(v_back + v)) <= 1e-10


    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "logistic"]), d=st.integers(1, 5), n=st.integers(1, 6),
           per_row=st.booleans(), seed=st.integers(0, 2**31))
    def test_batch_rows_equal_single_steps(self, kind, d, n, per_row, seed, row_by_row):
        # The dataset target is batched through its row-by-row copy: a
        # vectorized x @ a over n > 1 rows is a matrix product that BLAS may
        # round differently from the one-row product.
        rng = chain_rng(seed)
        if kind == "gaussian":
            target = make_gaussian(d, 0.5 + rng.random(d))
            batched = target
        else:
            data = sample_sphere_dataset(d, 20, 0.7, seed)
            target = make_logistic_regression(data, 1.0)
            batched = row_by_row(target)
        x, v = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        eta = 0.01 + 0.49 * rng.random((n, 1)) if per_row else 0.3
        pot, grad = batched.value_and_grad(x)
        x_hat, v_hat, pot_hat, grad_hat, err = leapfrog(batched.value_and_grad, x, v, pot, grad, eta)
        for j in range(n):
            x_one, v_one, err_one = step(target, x[j], v[j], float(eta[j, 0]) if per_row else eta)
            assert np.array_equal(x_hat[j], x_one)
            assert np.array_equal(v_hat[j], v_one)
            assert err[j] == err_one
            assert np.array_equal(grad_hat[j], target.gradient(x_one))


class TestSquaredNorms:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 12), d=st.integers(1, 300), scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**31))
    def test_vecdot_rows_equal_dot(self, n, d, scale, seed):
        # leapfrog's kinetic energies: each row summed as the 1-D dot product sums it.
        v = scale * chain_rng(seed).standard_normal((n, d))
        sq = np.vecdot(v, v)
        for j in range(n):
            assert sq[j] == np.dot(v[j], v[j])


class TestExactFlow:
    def test_identity_at_zero(self):
        g = make_gaussian(2, [1.0, 4.0])
        q, p = np.array([1.0, 2.0]), np.array([-1.0, 0.5])
        q_t, p_t = exact_quadratic_flow(g, q, p, 0.0)
        assert np.allclose(q_t, q)
        assert np.allclose(p_t, p)

    def test_quarter_rotation(self):
        g = make_gaussian(1, 1.0)
        q_t, p_t = exact_quadratic_flow(g, np.zeros(1), np.ones(1), math.pi / 2.0)
        assert float(q_t[0]) == pytest.approx(1.0, abs=1e-12)
        assert float(p_t[0]) == pytest.approx(0.0, abs=1e-12)

    def test_conserves_hamiltonian(self):
        g = make_gaussian(3, [0.5, 1.0, 2.0])
        rng = chain_rng(5)
        for _ in range(40):
            q, p = rng.standard_normal(3), rng.standard_normal(3)
            t = float(rng.random() * 10.0)
            before = hamiltonian(g, q, p)
            after = hamiltonian(g, *exact_quadratic_flow(g, q, p, t))
            assert abs(after - before) <= 1e-12 * (1.0 + abs(before))

    def test_requires_analytic_flow(self):
        with pytest.raises(ValueError):
            exact_quadratic_flow(flat_target(1), np.zeros(1), np.zeros(1), 1.0)

    def test_leapfrog_tracks_flow_at_third_order(self):
        g = make_gaussian(1, 1.0)
        rng = chain_rng(6)
        for eta in (0.1, 0.05, 0.025):
            for _ in range(20):
                q, p = rng.standard_normal(1), rng.standard_normal(1)
                q_hat, p_hat, _ = step(g, q, p, eta)
                q_t, p_t = exact_quadratic_flow(g, q, p, eta)
                scale = 1.0 + float(np.linalg.norm(np.concatenate([q, p])))
                err = max(float(np.max(np.abs(q_hat - q_t))), float(np.max(np.abs(p_hat - p_t))))
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
        x_hat, _, err = step(g, np.zeros(1), np.ones(1), 0.1)
        a = log_accept_energy(err)
        b = log_accept_proposal_form(g, np.zeros(1), x_hat, 0.1)
        assert a == pytest.approx(-1.25e-5, rel=1e-9)
        assert abs(a - b) <= 1e-10

    def test_forms_agree_on_random_instances(self):
        # smaller version of the acceptance gate; the 1e4-instance run lives there
        data = sample_sphere_dataset(5, 20, 0.7, 2)
        targets = [make_gaussian(5, [0.5, 1.0, 2.0, 1.0, 1.0]), make_logistic_regression(data, 1.0)]
        rng = chain_rng(17)
        for _ in range(500):
            t = targets[int(rng.integers(2))]
            x, v = rng.standard_normal(5), rng.standard_normal(5)
            eta = 0.01 + 0.49 * float(rng.random())
            x_hat, _, err = step(t, x, v, eta)
            a = log_accept_energy(err)
            b = log_accept_proposal_form(t, x, x_hat, eta)
            assert abs(a - b) <= 1e-10
