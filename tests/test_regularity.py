"""Incoherence, C3/C4 estimation, gradient bound, good set, exit probability."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from malakit.regularity import (
    GoodSetParams,
    build_regularity_report,
    constraint_exit_estimate,
    estimate_c3,
    estimate_c4,
    estimate_gradient_bound,
    good_set_check,
    incoherence,
    theorem3_bounds,
)
from malakit.regularity import _GRAM_BLOCK_ENTRIES
from malakit.rng import chain_rng
from malakit.targets import (
    Dataset,
    TargetModel,
    annulus,
    make_gaussian,
    make_logistic_regression,
    sample_sphere_dataset,
)


def e1(d):
    v = np.zeros(d)
    v[0] = 1.0
    return v


class TestIncoherence:
    def test_orthonormal_is_one(self):
        data = Dataset(features=np.eye(4), responses=np.ones(4, dtype=int))
        assert incoherence(data) == pytest.approx(1.0)

    def test_duplicate_column_is_two(self):
        feats = np.stack([e1(3), e1(3)], axis=1)
        data = Dataset(features=feats, responses=np.array([1, 1]))
        assert incoherence(data) == pytest.approx(2.0)

    def test_matches_double_loop_oracle(self):
        data = sample_sphere_dataset(50, 100, 0.7, 8)
        # independent O(r^2) oracle: literal double loop
        f = data.features
        best = 0.0
        for i in range(100):
            total = 0.0
            for j in range(100):
                total += abs(float(f[:, i] @ f[:, j]))
            best = max(best, total)
        assert incoherence(data) == pytest.approx(best, rel=1e-12)

    def test_invariance_under_permutation_and_rotation(self):
        data = sample_sphere_dataset(6, 30, 0.7, 9)
        base = incoherence(data)
        rng = chain_rng(10)
        perm = rng.permutation(30)
        permuted = Dataset(features=data.features[:, perm], responses=data.responses[perm])
        assert incoherence(permuted) == pytest.approx(base, rel=1e-12)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated_feats = q @ data.features
        rotated_feats /= np.linalg.norm(rotated_feats, axis=0)  # renormalize roundoff
        rotated = Dataset(features=rotated_feats, responses=data.responses)
        assert incoherence(rotated) == pytest.approx(base, rel=1e-9)

    # The budget gives r = 1141 rows of 114, so 1141 = 1 (mod 114), split into
    # 10 blocks; 2000 is the zero-one benchmark's r; 511 is the largest r of one block.
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 12), r=st.integers(1, 1500), seed=st.integers(0, 2**16))
    @example(d=3, r=1141, seed=0)
    @example(d=7, r=2000, seed=11)
    @example(d=5, r=511, seed=1)
    def test_row_blocks_match_the_full_gram_matrix(self, d, r, seed):
        data = sample_sphere_dataset(d, r, 0.7, seed)
        full = float(np.max(np.abs(data.features.T @ data.features).sum(axis=1)))
        if r // max(2, _GRAM_BLOCK_ENTRIES // r) <= 1:  # one block is f.T @ f on the same buffer: same bits
            assert incoherence(data) == full
        else:
            assert incoherence(data) == pytest.approx(full, rel=1e-12, abs=0)

    def test_memory_does_not_grow_as_r_squared(self):
        # The full 4000 x 4000 Gram matrix and its absolute value take 128 MB each.
        data = sample_sphere_dataset(3, 4000, 0.7, 2)
        tracemalloc.start()
        try:
            incoherence(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestTheorem3Bounds:
    def test_single_datum(self):
        assert theorem3_bounds(1, 1.0) == (pytest.approx(1.0), 1.0)

    def test_formula(self):
        c3, c4 = theorem3_bounds(100, 4.0)
        assert c3 == pytest.approx(20.0)
        assert c4 == 100.0

    def test_orthonormal_regime(self):
        # r = d orthonormal data: incoherence 1, so (sqrt(d), d)
        for d in (4, 9, 16):
            c3, c4 = theorem3_bounds(d, 1.0)
            assert c3 == pytest.approx(math.sqrt(d))
            assert c4 == d

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem3_bounds(0, 1.0)
        with pytest.raises(ValueError):
            theorem3_bounds(3, 0.5)
        # NaN passed a ``phi < 1`` check at an earlier version: (nan, 3.0).
        for phi in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                theorem3_bounds(3, phi)


class TestDerivativeEstimators:
    def test_quadratic_target_noise_floor(self):
        g = make_gaussian(3, [1.0, 2.0, 0.5])
        quad = dataclasses.replace(g, bad_directions=np.eye(3))
        assert estimate_c3(quad, 10, 10, 1) <= 1e-4
        assert estimate_c4(quad, 10, 10, 1) <= 1e-2

    def test_single_datum_logistic(self):
        data = Dataset(features=e1(3)[:, None], responses=np.array([1]))
        t = make_logistic_regression(data, 0.0)
        assert estimate_c3(t, 20, 20, 2) <= 1.0 + 1e-2
        assert estimate_c4(t, 20, 20, 2) <= 1.0 + 5e-2

    def test_bounded_by_theorem3(self):
        data = sample_sphere_dataset(5, 50, 0.7, 3)
        t = make_logistic_regression(data, 1.0)
        c3_bound, c4_bound = theorem3_bounds(50, incoherence(data))
        assert estimate_c3(t, 15, 15, 4) <= c3_bound * (1.0 + 1e-2)
        assert estimate_c4(t, 15, 15, 4) <= c4_bound * (1.0 + 5e-2)

    def test_finite_difference_path_agrees(self):
        data = sample_sphere_dataset(4, 20, 0.7, 5)
        t = make_logistic_regression(data, 0.5)
        fd = dataclasses.replace(t, third_directional=None, fourth_directional=None)
        assert estimate_c3(fd, 6, 6, 6) == pytest.approx(estimate_c3(t, 6, 6, 6), rel=1e-3)
        assert estimate_c4(fd, 6, 6, 6) == pytest.approx(estimate_c4(t, 6, 6, 6), rel=1e-3)

    def test_monotone_in_probe_counts(self):
        data = sample_sphere_dataset(4, 30, 0.7, 7)
        t = make_logistic_regression(data, 1.0)
        small = estimate_c3(t, 4, 4, 8)
        more_points = estimate_c3(t, 8, 4, 8)
        more_dirs = estimate_c3(t, 8, 9, 8)
        assert small <= more_points <= more_dirs

    def test_requires_bad_directions(self):
        with pytest.raises(ValueError):
            estimate_c3(make_gaussian(2, 1.0), 2, 2, 0)


class TestGradientBound:
    def test_gaussian_within_ball(self):
        g = make_gaussian(2, 1.0)
        rng = chain_rng(11)
        pts = [2.0 * v / np.linalg.norm(v) * float(rng.random()) for v in rng.standard_normal((30, 2))]
        est = estimate_gradient_bound(g, pts)
        assert est.gradient_bound <= 2.0
        assert est.smoothness <= 1.0 + 1e-9

    def test_single_datum_bound(self):
        data = Dataset(features=e1(3)[:, None], responses=np.array([1]))
        t = make_logistic_regression(data, 0.0)
        rng = chain_rng(12)
        est = estimate_gradient_bound(t, list(rng.standard_normal((50, 3))))
        assert est.gradient_bound <= 1.0

    def test_constant_target(self):
        t = TargetModel(dimension=2,
                        potential=lambda x: np.zeros(np.asarray(x).shape[:-1]),
                        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                        name="const")
        est = estimate_gradient_bound(t, [np.zeros(2), np.ones(2)])
        assert est.gradient_bound == 0.0


def _verlet_path(target, q, p, horizon, substeps):
    """The start and each substep of the scalar velocity-Verlet loop that
    ``good_set_check`` ran before it stepped ``leapfrog``."""
    yield q, p
    dt = horizon / substeps
    grad = np.asarray(target.gradient(q), dtype=float)
    for _ in range(substeps):
        p_half = p - 0.5 * dt * grad
        q = q + dt * p_half
        grad = np.asarray(target.gradient(q), dtype=float)
        p = p_half - 0.5 * dt * grad
        yield q, p


def _bad_directions(target):
    return target.bad_directions if target.bad_directions is not None else np.eye(target.dimension)


def verlet_good_set(target, q, p, params) -> bool:
    """The reference: the scalar check of one phase point, stopping at the
    first point of the path outside the set."""
    bd = _bad_directions(target)
    if float(np.linalg.norm(p)) > params.radius:
        return False
    pos_bound = (3.0 / math.sqrt(2.0)) * params.radius / math.sqrt(params.grad_bound)
    return all(float(np.max(np.abs(bd.T @ pp))) <= params.alpha and float(np.linalg.norm(qq)) <= pos_bound
               for qq, pp in _verlet_path(target, q, p, params.horizon, params.substeps))


class TestGoodSet:
    PARAMS = GoodSetParams(alpha=4.0, radius=3.0 * math.sqrt(10.0), grad_bound=1.0, horizon=0.3, substeps=8)

    def test_rest_at_minimizer(self):
        g = make_gaussian(10, 1.0)
        assert good_set_check(g, np.zeros((1, 10)), np.zeros((1, 10)), self.PARAMS).tolist() == [True]

    def test_fast_velocity_fails(self):
        g = make_gaussian(10, 1.0)
        v = np.zeros((2, 10))
        v[0, 0] = self.PARAMS.radius + 1.0
        assert good_set_check(g, np.zeros((2, 10)), v, self.PARAMS).tolist() == [False, True]

    def test_monotone_in_thresholds(self):
        g = make_gaussian(10, 1.0)
        rng = chain_rng(16)
        bigger = GoodSetParams(alpha=6.0, radius=self.PARAMS.radius * 2.0, grad_bound=0.5,
                               horizon=0.3, substeps=8)
        x, v = rng.standard_normal((200, 10)), rng.standard_normal((200, 10))
        inside = good_set_check(g, x, v, self.PARAMS)
        assert np.all(good_set_check(g, x, v, bigger)[inside])

    def test_rows_must_match_the_target(self):
        g = make_gaussian(3, 1.0)
        for x, v in ((np.zeros(3), np.zeros(3)), (np.zeros((2, 3)), np.zeros((3, 3))), (np.zeros((2, 4)),) * 2):
            with pytest.raises(ValueError, match=r"\(n, 3\)"):
                good_set_check(g, x, v, self.PARAMS)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "logistic"]), d=st.integers(1, 4), n=st.integers(1, 6),
           seed=st.integers(0, 2**31), horizon=st.floats(0.05, 1.0), substeps=st.integers(1, 8),
           slack=st.tuples(*[st.floats(1e-6, 0.1).flatmap(lambda e: st.sampled_from([-e, e]))] * 3))
    def test_rows_equal_single_rows_and_the_verlet_loop(self, kind, d, n, seed, horizon, substeps, slack):
        rng = chain_rng(seed)
        if kind == "gaussian":
            target = make_gaussian(d, 0.5 + rng.random(d))
        else:
            target = make_logistic_regression(sample_sphere_dataset(d, 20, 0.7, seed), 1.0)
        x, v = rng.standard_normal((n, d)), 3.0 * rng.standard_normal((n, d))
        # Thresholds within a relative ``slack`` (1e-6 to 0.1, either side)
        # of row 0's extremes along its path, so row 0 sits near the boundary.
        bd = _bad_directions(target)
        path = list(_verlet_path(target, x[0], v[0], horizon, substeps))
        alpha = max(float(np.max(np.abs(bd.T @ pp))) for _, pp in path) * (1.0 + slack[0])
        radius = float(np.linalg.norm(v[0])) * (1.0 + slack[1])
        reach = max(float(np.linalg.norm(qq)) for qq, _ in path) * (1.0 + slack[2])
        assume(alpha > math.sqrt(2.0) and reach > 0.0)
        params = GoodSetParams(alpha=alpha, radius=radius, grad_bound=(3.0 / math.sqrt(2.0) * radius / reach) ** 2,
                               horizon=horizon, substeps=substeps)
        batched = good_set_check(target, x, v, params)
        assert batched.dtype == bool and batched.shape == (n,)
        for j in range(n):
            assert batched[j] == good_set_check(target, x[j:j + 1], v[j:j + 1], params)[0]
            assert batched[j] == verlet_good_set(target, x[j], v[j], params)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            GoodSetParams(alpha=1.0, radius=1.0, grad_bound=1.0, horizon=0.1)

    @pytest.mark.parametrize("field, bad", [("alpha", math.nan), ("radius", math.nan),
                                            ("grad_bound", math.nan), ("horizon", math.inf)])
    def test_thresholds_must_be_finite(self, field, bad):
        # Each built at an earlier version; the check then answered False
        # for every phase point, and horizon = inf warned from numpy.
        fields = {"alpha": 4.0, "radius": 1.0, "grad_bound": 1.0, "horizon": 0.1, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite") as err:
            GoodSetParams(**fields)
        assert str(err.value).count("must be") == 1

    def test_every_problem_listed(self):
        with pytest.raises(ValueError) as err:
            GoodSetParams(alpha=math.nan, radius=math.nan, grad_bound=math.nan, horizon=math.inf, substeps=0)
        assert [part.split(" must")[0] for part in str(err.value).split(": ", 1)[1].split("; ")] == [
            "alpha", "radius", "grad_bound", "horizon", "substeps"]


class TestExitEstimate:
    def test_full_space(self, full_space):
        g = make_gaussian(2, 1.0)
        est = constraint_exit_estimate(g, full_space(), 0.5, np.zeros(2), 1000, 0)
        assert est.estimate == 1.0

    def test_tiny_step_stays_local(self):
        g = make_gaussian(2, 1.0)
        ring = annulus(0.5, 1.0)
        est = constraint_exit_estimate(g, ring, 1e-6, np.array([0.75, 0.0]), 1000, 1)
        assert est.estimate == 1.0

    def test_annulus_against_monte_carlo_oracle(self):
        flat = TargetModel(dimension=2,
                           potential=lambda x: np.zeros(np.asarray(x).shape[:-1]),
                           gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                           name="flat")
        ring = annulus(0.5, 1.0)
        z = np.array([0.75, 0.0])
        est = constraint_exit_estimate(flat, ring, 0.1, z, 20000, 2)
        # independent oracle: direct geometric Monte Carlo with its own stream
        rng = np.random.default_rng(987)
        pts = z + 0.1 * rng.standard_normal((200000, 2))
        oracle = float(np.mean((np.linalg.norm(pts, axis=1) >= 0.5) & (np.linalg.norm(pts, axis=1) <= 1.0)))
        assert est.estimate >= 0.9
        assert abs(est.estimate - oracle) <= 4.0 * (est.std_error + 1.0 / math.sqrt(200000))

    def test_requires_feasible_point(self):
        g = make_gaussian(2, 1.0)
        with pytest.raises(ValueError):
            constraint_exit_estimate(g, annulus(0.5, 1.0), 0.1, np.zeros(2), 10, 0)


class TestReport:
    def test_logistic_report(self):
        data = sample_sphere_dataset(5, 40, 0.7, 17)
        t = make_logistic_regression(data, 1.0)
        report = build_regularity_report(t, data, 8, 8, 18)
        assert report.c3_estimate <= report.c3_bound * 1.05
        assert report.c4_estimate <= report.c4_bound * 1.05
        assert report.incoherence >= 1.0
        parsed = __import__("json").loads(report.to_json())
        assert parsed["probe_points"] == 8
        assert [row[0] for row in report.rows()] == ["incoherence", "C3", "C4", "gradient bound", "smoothness"]
