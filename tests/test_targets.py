"""Target construction, datasets, schedules, and serialization."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from malakit import targets
from malakit.rng import chain_rng
from malakit.targets import (
    Dataset,
    TargetModel,
    annulus,
    load_dataset,
    make_gaussian,
    make_logistic_regression,
    make_sigmoid_regression,
    make_smoothed_zero_one,
    recommended_schedule,
    sample_sphere_dataset,
    save_dataset,
)
from malakit.targets import _logistic_loss, _plain_sigmoid, _sigma_derivs, _sigmoid_loss

TINY = np.finfo(float).tiny
ROOT = Path(__file__).resolve().parents[1]


def e1(d):
    v = np.zeros(d)
    v[0] = 1.0
    return v


def max_gradient_fd_error(target, points) -> float:
    """Worst relative mismatch between the gradient and central differences
    of the potential, with step ``1e-5 * (1 + |x|)``; the error is
    ``|fd - grad| / (1 + |grad|)``, so a vanishing gradient does not blow
    it up."""
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        h = 1e-5 * (1.0 + np.linalg.norm(x))
        grad = np.asarray(target.gradient(x), dtype=float)
        fd = np.array([(float(target.potential(x + h * e)) - float(target.potential(x - h * e))) / (2.0 * h)
                       for e in np.eye(x.size)])
        worst = max(worst, float(np.linalg.norm(fd - grad) / (1.0 + np.linalg.norm(grad))))
    return worst


def single_datum_dataset(d=3, label=1):
    return Dataset(features=e1(d)[:, None], responses=np.array([label]))


class TestGaussian:
    def test_1d_quadratic(self):
        g = make_gaussian(1, 1.0)
        assert float(g.potential(np.array([2.0]))) == pytest.approx(2.0)
        assert float(g.gradient(np.array([2.0]))[0]) == pytest.approx(2.0)

    def test_minimizer_at_origin(self):
        g = make_gaussian(3, [1.0, 1.0, 1.0])
        assert float(g.potential(np.zeros(3))) == 0.0
        assert np.allclose(g.gradient(np.zeros(3)), 0.0)

    def test_anisotropic_value(self):
        g = make_gaussian(2, [1.0, 4.0])
        x = np.array([1.0, 1.0])
        assert float(g.potential(x)) == pytest.approx(2.5)
        assert np.allclose(g.gradient(x), [1.0, 4.0])

    def test_rejects_nonpositive_precision(self):
        with pytest.raises(ValueError):
            make_gaussian(2, [1.0, 0.0])
        with pytest.raises(ValueError):
            make_gaussian(2, [-1.0, 1.0])

    def test_rejects_precision_of_wrong_length(self):
        with pytest.raises(ValueError, match="precision has 2 entries; d = 3 needs 1 or 3"):
            make_gaussian(3, [1.0, 4.0])

    def test_constants_and_normalizer(self):
        g = make_gaussian(2, [1.0, 4.0])
        assert np.array_equal(g.quadratic_precision, [1.0, 4.0])
        assert np.array_equal(make_gaussian(3, 2.5).quadratic_precision, [2.5, 2.5, 2.5])


class TestLogisticRegression:
    def test_prior_only(self):
        data = Dataset(features=np.empty((4, 0)), responses=np.empty(0, dtype=int))
        t = make_logistic_regression(data, 1.0)
        theta = np.array([1.0, 2.0, 0.0, -1.0])
        assert float(t.potential(theta)) == pytest.approx(0.5 * float(theta @ theta))

    def test_single_datum_at_origin(self):
        t = make_logistic_regression(single_datum_dataset(), 0.0)
        assert float(t.potential(np.zeros(3))) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_single_datum_large_margin(self):
        t = make_logistic_regression(single_datum_dataset(), 0.0)
        theta = 10.0 * e1(3)
        # oracle: softplus(-10)
        assert float(t.potential(theta)) == pytest.approx(math.log1p(math.exp(-10.0)), rel=1e-12)

    def test_stability_at_extreme_margins(self):
        data = sample_sphere_dataset(4, 30, 0.8, 5)
        targets = (make_logistic_regression(data, 1.0), make_sigmoid_regression(data, 1.0),
                   make_smoothed_zero_one(data, 10.0, 1.0))
        for t in targets:
            theta = 1e3 * np.ones(4) / 2.0
            assert np.isfinite(t.potential(theta))
            assert np.all(np.isfinite(t.gradient(theta)))

    def test_convex_along_random_lines(self):
        data = sample_sphere_dataset(5, 40, 0.7, 9)
        t = make_logistic_regression(data, 0.5)
        rng = chain_rng(31)
        for _ in range(25):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            ux, uy = float(t.potential(x)), float(t.potential(y))
            for lam in (0.0, 0.25, 0.5, 0.75):
                mix = float(t.potential(lam * x + (1 - lam) * y))
                assert mix <= lam * ux + (1 - lam) * uy + 1e-9

    def test_accepts_sign_labels(self):
        feats = np.stack([e1(3), -e1(3)], axis=1)
        signed = Dataset(features=feats, responses=np.array([1, -1]))
        binary = Dataset(features=feats, responses=np.array([1, 0]))
        a = make_logistic_regression(signed, 0.0)
        b = make_logistic_regression(binary, 0.0)
        x = np.array([0.3, -0.1, 0.7])
        assert float(a.potential(x)) == pytest.approx(float(b.potential(x)), rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(1, 50), elements=st.floats(-745.0, 745.0)))
    def test_loss_matches_logaddexp_and_expit_forms(self, t):
        # The loss derives its value and slope from one exp(-|t|).  Below the
        # normal range (|value| < TINY) only a few subnormal units can agree.
        loss = _logistic_loss()
        value, d1 = loss.value_d1(t)
        np.testing.assert_allclose(value, np.logaddexp(0.0, -t), rtol=1e-15, atol=1e-15 * TINY)
        # expit(t) - 1 cancels for t > 0: its error is relative to the slope's
        # bound of 1, while -expit(-t) is accurate to the last place.
        np.testing.assert_allclose(d1, expit(t) - 1.0, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(d1, -expit(-t), rtol=1e-15, atol=TINY)
        assert _bits(value) == _bits(loss.value(t))

    def test_loss_non_finite_margins(self):
        # +-inf give the values of logaddexp and expit, and NaN stays NaN, so
        # the engines' non-finite rule sees the same inputs.
        t = np.array([np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            old_value, old_d1 = np.logaddexp(0.0, -t), expit(t) - 1.0
        value, d1 = _logistic_loss().value_d1(t)
        np.testing.assert_array_equal(value, old_value)
        np.testing.assert_array_equal(d1, old_d1)
        assert np.array_equal(value, [0.0, np.inf, np.nan], equal_nan=True)
        assert np.array_equal(d1, [0.0, -1.0, np.nan], equal_nan=True)


class TestSigmoidRegression:
    def test_single_datum_at_origin(self):
        t = make_sigmoid_regression(single_datum_dataset(), 0.0)
        assert float(t.potential(np.zeros(3))) == pytest.approx(0.5)

    def test_prior_only(self):
        data = Dataset(features=np.empty((2, 0)), responses=np.empty(0, dtype=int))
        t = make_sigmoid_regression(data, 1.0)
        theta = np.array([3.0, -4.0])
        assert float(t.potential(theta)) == pytest.approx(12.5)

    def test_antipodal_pair_at_origin(self):
        feats = np.stack([e1(4), -e1(4)], axis=1)
        data = Dataset(features=feats, responses=np.array([1, 1]))
        t = make_sigmoid_regression(data, 0.0)
        assert float(t.potential(np.zeros(4))) == pytest.approx(1.0)


def _sigmoid_reference(t):
    """The closed forms in ``np.longdouble``: sigma, sigma' and orders 2-4."""
    t = np.asarray(t, dtype=np.longdouble)
    p, q = 1 / (1 + np.exp(-t)), 1 / (1 + np.exp(t))
    d1 = p * q
    return p, d1, {2: d1 * (q - p), 3: d1 * (1 - 6 * d1), 4: d1 * (q - p) * (1 - 12 * d1)}


# Below the normal range float64 has fewer than 53 bits, so there the bound
# is one subnormal spacing (SUB) rather than relative.
SUB = np.finfo(float).smallest_subnormal


@pytest.mark.skipif(np.finfo(np.longdouble).precision < 18, reason="needs an 18-digit long double reference")
class TestSigmoidAccuracy:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(1, 50), elements=st.floats(-745.0, 745.0)))
    def test_against_long_double(self, t):
        ref_p, ref_d1, ref = _sigmoid_reference(t)
        p, d1 = _plain_sigmoid().value_d1(t)
        assert np.all(np.abs(p - ref_p) <= 1e-15 * ref_p + SUB)
        assert np.all(np.abs(d1 - ref_d1) <= 2e-15 * ref_d1 + SUB)
        for order in (2, 3, 4):
            assert np.all(np.abs(_sigma_derivs(t, order) - ref[order]) <= 2e-15 * ref_d1 + SUB), order

    def test_slope_does_not_round_to_zero_in_the_tail(self):
        # p*(1-p) is exactly 0 here: 1 - sigma(40) rounds to 0.
        d1 = _plain_sigmoid().value_d1(np.array([40.0, -40.0]))[1]
        assert np.all(d1 > 0.0)
        np.testing.assert_allclose(d1, float(_sigmoid_reference(40.0)[1]), rtol=1e-15)

    def test_non_finite_arguments(self):
        t = np.array([np.inf, -np.inf, np.nan])
        p, d1 = _plain_sigmoid().value_d1(t)
        assert np.array_equal(p, [1.0, 0.0, np.nan], equal_nan=True)
        assert np.array_equal(d1, [0.0, 0.0, np.nan], equal_nan=True)
        for order in (2, 3, 4):
            assert np.array_equal(_sigma_derivs(t, order), [0.0, 0.0, np.nan], equal_nan=True)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.integers(1, 50), elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_value_alone_equals_the_fused_value(self, t):
        for loss in (_plain_sigmoid(), _sigmoid_loss()):
            assert _bits(loss.value(t)) == _bits(loss.value_d1(t)[0])
        value, d1 = _sigmoid_loss().value_d1(t)  # phi(t) = sigma(-t), phi' = -sigma'
        p, dp = _plain_sigmoid().value_d1(-t)
        assert _bits(value) == _bits(p) and _bits(d1) == _bits(-dp)


@pytest.mark.parametrize("make", [make_logistic_regression, make_sigmoid_regression], ids=["logistic", "sigmoid"])
@pytest.mark.parametrize("prior", [np.nan, np.inf, -1.0])
def test_regression_prior_must_be_finite_and_nonnegative(make, prior):
    # NaN passed an earlier ``prior < 0`` test, and the regularity report
    # then printed a NaN gradient bound.
    with pytest.raises(ValueError, match=f"prior_precision must be finite and nonnegative, got {prior}"):
        make(single_datum_dataset(), prior)


class TestSmoothedZeroOne:
    def _clean_dataset(self, d=3, r=40, seed=4):
        rng = chain_rng(seed)
        feats = rng.standard_normal((d, r))
        feats /= np.linalg.norm(feats, axis=0)
        theta = e1(d)
        labels = np.where(feats.T @ theta >= 0, 1, -1)
        return Dataset(features=feats, responses=labels, true_param=theta)

    def test_aligned_with_consistent_labels_vanishes(self):
        data = self._clean_dataset()
        inv_temp = 50.0
        t = make_smoothed_zero_one(data, inv_temp, 1.0)
        x = 1e4 * e1(3)  # far out: surrogate saturates to the zero-one count, which is 0
        assert float(t.potential(x)) / inv_temp < 1e-6

    def test_orthogonal_point_gives_half(self):
        data = self._clean_dataset()
        inv_temp = 20.0
        t = make_smoothed_zero_one(data, inv_temp, 1.0)
        x = np.zeros(3)  # orthogonal to every feature
        assert float(t.potential(x)) == pytest.approx(inv_temp * 0.5, rel=1e-12)

    def test_empty_dataset_rejected(self):
        empty = Dataset(features=np.empty((3, 0)), responses=np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            make_smoothed_zero_one(empty, 10.0, 1.0)

    @pytest.mark.parametrize("inv_temp, scale, message", [
        (np.nan, 1.0, "inverse_temperature must be finite and positive, got nan"),
        (np.inf, 1.0, "inverse_temperature must be finite and positive, got inf"),
        (10.0, np.nan, "scale must be finite and positive, got nan"),
        (10.0, np.inf, "scale must be finite and positive, got inf"),
        (10.0, 0.0, "scale must be finite and positive, got 0.0"),
        (10.0, -1.0, "scale must be finite and positive, got -1.0"),
    ], ids=["temperature-nan", "temperature-inf", "scale-nan", "scale-inf", "scale-zero", "scale-negative"])
    def test_non_finite_scalars_refused(self, inv_temp, scale, message):
        # An earlier ``<= 0`` test let NaN and inf through.
        with pytest.raises(ValueError, match=message):
            make_smoothed_zero_one(self._clean_dataset(), inv_temp, scale)

    @pytest.mark.parametrize("scale", [0.3, 2.0, 150.0])
    def test_scale_is_the_argument_rescaled(self, scale):
        # The scaled target at x is the unscaled one at scale * x, with one
        # factor of scale per derivative (the chain rule).
        data = sample_sphere_dataset(3, 40, 0.7, 7)
        scaled, unit = make_smoothed_zero_one(data, 30.0, scale), make_smoothed_zero_one(data, 30.0, 1.0)
        rng = chain_rng(17)
        x = rng.standard_normal((20, 3)) / scale
        pot, grad = scaled.value_and_grad(x)
        ref_pot, ref_grad = unit.value_and_grad(scale * x)
        assert np.max(np.abs(pot - ref_pot)) <= 1e-12 * np.max(np.abs(ref_pot))
        assert np.max(np.abs(grad / scale - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
        for point in x:
            u, v, w = rng.standard_normal((3, 3))
            assert scaled.third_directional(point, u, v, w) / scale**3 == pytest.approx(
                unit.third_directional(scale * point, u, v, w), rel=1e-10)
            assert scaled.fourth_directional(point, u) / scale**4 == pytest.approx(
                unit.fourth_directional(scale * point, u), rel=1e-10)


class TestRecommendedSchedule:
    def test_unit_case(self):
        inv_temp, lam = recommended_schedule(1.0, 0.1, 1, 1.0)
        assert inv_temp == pytest.approx(100.0)
        assert lam == pytest.approx(100.0 * 100.0 / math.log(100.0))

    def test_d4_case(self):
        inv_temp, _ = recommended_schedule(0.5, 0.1, 4, 1.0)
        assert inv_temp == pytest.approx(1600.0)

    def test_lambda_identity(self):
        for d, q0, eps, c1 in [(1, 1.0, 0.1, 1.0), (3, 0.7, 0.05, 0.2), (10, 0.3, 0.02, 2.0)]:
            inv_temp, lam = recommended_schedule(q0, eps, d, c1)
            # lam * T * log(1/T) = 100 sqrt(d)
            assert lam / inv_temp * math.log(inv_temp) == pytest.approx(100.0 * math.sqrt(d))

    def test_epsilon_cap(self):
        with pytest.raises(ValueError):
            recommended_schedule(1.0, 0.11, 1)
        recommended_schedule(1.0, 0.1, 1)  # boundary allowed

    def test_degenerate_temperature_rejected(self):
        with pytest.raises(ValueError):
            recommended_schedule(1.0, 0.1, 1, c1=1e-4)


class TestSphereDataset:
    def test_determinism(self):
        a = sample_sphere_dataset(4, 25, 0.6, 17)
        b = sample_sphere_dataset(4, 25, 0.6, 17)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.responses, b.responses)

    def test_unit_columns(self):
        data = sample_sphere_dataset(6, 50, 0.5, 3)
        assert np.allclose(np.linalg.norm(data.features, axis=0), 1.0, atol=1e-12)

    def test_label_noise_model(self):
        # Monte Carlo oracle: E[Y * sign(X . theta)] = E[min(1, q0 |X . theta|)];
        # for d=3 the projection is uniform on [-1, 1], so the mean is q0/2.
        data = sample_sphere_dataset(3, 10**5, 0.5, 23)
        ips = data.features.T @ e1(3)
        agreement = float(np.mean(data.responses * np.where(ips >= 0, 1, -1)))
        assert agreement == pytest.approx(0.25, abs=0.01)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sample_sphere_dataset(3, 5, 0.0, 1)
        for d in (0, -3):
            with pytest.raises(ValueError, match=f"dimension d must be >= 1, got {d}"):
                sample_sphere_dataset(d, 5, 0.5, 1)
        # A negative count failed in numpy with "negative dimensions are not allowed".
        with pytest.raises(ValueError, match="count r must be >= 0, got -2"):
            sample_sphere_dataset(3, -2, 0.5, 1)

    def test_degenerate_rows_are_redrawn_in_order_from_the_stream(self, monkeypatch):
        class ZeroRows:  # the seed's stream, with rows 1 and 3 of the first block zeroed
            def __init__(self, seed):
                self.rng, self.first = chain_rng(seed), True

            def standard_normal(self, size):
                g = self.rng.standard_normal(size)
                if self.first:
                    g[[1, 3]], self.first = 0.0, False
                return g

            def random(self, size):
                return self.rng.random(size)

        monkeypatch.setattr(targets, "chain_rng", ZeroRows)
        data = sample_sphere_dataset(3, 5, 0.7, 4)
        rng = chain_rng(4)
        g = rng.standard_normal((5, 3))
        g[[1, 3]] = rng.standard_normal((2, 3))
        assert np.array_equal(data.features, (g / np.sqrt(np.vecdot(g, g))[:, None]).T)
        base = np.where(data.features.T @ e1(3) >= 0.0, 1, -1)
        keep = rng.random(5) < (1.0 + np.minimum(1.0, 0.7 * np.abs(data.features.T @ e1(3)))) / 2.0
        assert np.array_equal(data.responses, np.where(keep, base, -base))

    def test_bundled_dataset_is_the_generator_output(self, tmp_path):
        # The arguments of scripts/make_bundled_dataset.py; a moved generator
        # stream fails here before the bundled demo disagrees with it.
        csv_path, sidecar = save_dataset(sample_sphere_dataset(5, 50, 0.7, 1234), tmp_path / "b.csv")
        assert csv_path.read_bytes() == (ROOT / "data" / "bundled_r50.csv").read_bytes()
        assert sidecar.read_bytes() == (ROOT / "data" / "bundled_r50.json").read_bytes()

    def test_bundled_dataset_loads_to_the_generator_values(self):
        data = sample_sphere_dataset(5, 50, 0.7, 1234)
        loaded = load_dataset(ROOT / "data" / "bundled_r50.csv")
        assert np.array_equal(loaded.features, data.features) and np.array_equal(loaded.responses, data.responses)
        assert np.array_equal(loaded.true_param, data.true_param)
        assert (loaded.noise_floor, loaded.seed) == (0.7, 1234)


class TestAnnulus:
    def test_membership(self):
        ring = annulus(0.5, 1.0)
        assert not ring.contains(np.zeros(2))
        assert ring.contains(np.array([0.75, 0.0]))
        # closed on both boundaries
        assert ring.contains(np.array([1.0, 0.0]))
        assert ring.contains(np.array([0.5, 0.0]))

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            annulus(1.0, 0.5)
        with pytest.raises(ValueError):
            annulus(1.0, 1.0)

    def test_batched(self):
        ring = annulus(0.5, 1.0)
        pts = np.array([[0.0, 0.0], [0.75, 0.0], [2.0, 0.0]])
        assert ring.contains(pts).tolist() == [False, True, False]

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 3)), elements=st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1.5e154, -1e200, 1.7e308, math.inf, -math.inf,
                         math.nan]), st.floats())))
    def test_norm_is_linalg_norm_bit_for_bit(self, x):
        # A ring with a row's reference norm, or a float beside it, as a radius tells
        # two norms apart at one ulp; ±0, subnormals, overflow, ±inf and NaN included.
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(x, axis=-1)
        finite = norms[np.isfinite(norms) & (norms > 0)]
        radii = sorted({float(r) for n in finite for r in (np.nextafter(n, 0), n, np.nextafter(n, math.inf))
                        if r > 0} | {1.0, math.inf})
        for k, inner in enumerate(radii):
            for outer in radii[k + 1:]:
                with np.errstate(over="ignore"):
                    got = annulus(inner, outer).contains(x)
                assert got.tolist() == ((norms >= inner) & (norms <= outer)).tolist()


class TestGradientConsistency:
    def test_all_builtin_targets(self):
        data = sample_sphere_dataset(4, 25, 0.7, 44)
        targets = [
            make_gaussian(4, [0.5, 1.0, 2.0, 4.0]),
            make_logistic_regression(data, 1.0),
            make_sigmoid_regression(data, 1.0),
            make_smoothed_zero_one(data, 5.0, 1.0),
            make_smoothed_zero_one(data, 5.0, 2.5),
        ]
        rng = chain_rng(55)
        probes = [rng.standard_normal(4) for _ in range(100)]
        for t in targets:
            assert max_gradient_fd_error(t, probes) <= 1e-5, t.name


class TestDatasetIO:
    def test_roundtrip_bit_identical(self, tmp_path):
        data = sample_sphere_dataset(3, 12, 0.7, 99)
        csv_path, sidecar = save_dataset(data, tmp_path / "ds.csv")
        assert csv_path.exists() and sidecar.exists()
        loaded = load_dataset(csv_path)
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.responses, data.responses)
        assert np.array_equal(loaded.true_param, data.true_param)
        assert loaded.noise_floor == data.noise_floor
        assert loaded.seed == data.seed

    def test_header_only_is_an_empty_dataset(self, tmp_path):
        (tmp_path / "ds.csv").write_text("feature_0,feature_1,response\n")
        loaded = load_dataset(tmp_path / "ds.csv")
        assert loaded.features.shape == (2, 0) and loaded.responses.shape == (0,)

    def test_rejects_non_unit_columns(self):
        with pytest.raises(ValueError):
            Dataset(features=np.array([[2.0]]), responses=np.array([1]))

    def test_rejects_non_finite_features(self):
        # A NaN column passed the unit-norm test at an earlier version.
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="features must be finite; column 1 is not"):
                Dataset(features=np.array([[1.0, bad], [0.0, 0.0]]), responses=np.array([1, 0]))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(features=e1(2)[:, None], responses=np.array([3]))

    @pytest.mark.parametrize("theta", [[np.nan, 0.0], [np.inf, 0.0], [1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]],
                             ids=["nan", "inf", "short", "long", "matrix"])
    def test_rejects_bad_true_param(self, theta):
        with pytest.raises(ValueError, match="true_param must be a finite vector of length d = 2"):
            Dataset(features=e1(2)[:, None], responses=np.array([1]), true_param=theta)

    @pytest.mark.parametrize("sidecar, message", [
        ('{"q0": 0.7,', "Expecting property name"),
        ('{"q0": "abc"}', "could not convert string to float: 'abc'"),
        ('{"q0": null}', "float\\(\\) argument"),
        ('{"q0": 1.5}', "noise_floor must lie in"),
        ('[0.7]', "expected a JSON object, got list"),
        ('{"theta_star": [NaN, 0, 0, 0, 0]}', "true_param must be a finite vector of length d = 5"),
        ('{"theta_star": [1.0, 0.0]}', "true_param must be a finite vector of length d = 5"),
        ('{"theta_star": ["x", 0, 0, 0, 0]}', "could not convert string to float"),
        ('{"d": 7, "r": 50}', "d is 7, but the CSV has d = 5"),
        ('{"d": 5, "r": 3}', "r is 3, but the CSV has r = 50"),
        ('{"d": 5.0, "r": 50}', "d is 5.0, but the CSV has d = 5"),
        ('{"seed": "abc"}', "seed must be a non-negative integer or null, got 'abc'"),
        ('{"seed": -1}', "seed must be a non-negative integer or null, got -1"),
        ('{"seed": 1.5}', "seed must be a non-negative integer or null, got 1.5"),
    ], ids=["malformed", "q0-text", "q0-null", "q0-range", "not-an-object", "theta-nan", "theta-short",
            "theta-text", "d-mismatch", "r-mismatch", "d-float", "seed-text", "seed-negative", "seed-float"])
    def test_sidecar_errors_name_the_sidecar(self, tmp_path, sidecar, message):
        csv_path = tmp_path / "ds.csv"
        csv_path.write_bytes((ROOT / "data" / "bundled_r50.csv").read_bytes())
        (tmp_path / "ds.json").write_text(sidecar)
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'ds.json'))}: .*{message}"):
            load_dataset(csv_path)

    def test_loads_without_a_sidecar(self, tmp_path):
        csv_path = tmp_path / "ds.csv"
        csv_path.write_bytes((ROOT / "data" / "bundled_r50.csv").read_bytes())
        loaded = load_dataset(csv_path)
        assert loaded.true_param is None and loaded.noise_floor == 1.0 and loaded.seed is None


def _fused_cases():
    data = sample_sphere_dataset(3, 40, 0.7, seed=5)
    empty = Dataset(features=np.empty((3, 0)), responses=np.empty(0, dtype=np.int64))
    return {
        "gaussian": make_gaussian(3, [0.3, 1.7, 4.1]),
        "logistic": make_logistic_regression(data, 1.0),
        "sigmoid": make_sigmoid_regression(data, 0.5),
        "zero_one": make_smoothed_zero_one(data, 50.0, 1.0),
        "zero_one_scaled": make_smoothed_zero_one(data, 50.0, 7.5),
        "logistic_r0": make_logistic_regression(empty, 2.0),
    }


FUSED_CASES = _fused_cases()


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


class TestValueAndGrad:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(FUSED_CASES)),
           x=st.one_of(
               arrays(np.float64, 3, elements=st.floats(-200.0, 200.0)),
               arrays(np.float64, st.tuples(st.integers(1, 6), st.just(3)),
                      elements=st.floats(-200.0, 200.0))))
    def test_equals_separate_calls_bit_for_bit(self, name, x):
        target = FUSED_CASES[name]
        assert target.fused is not None
        pot, grad = target.value_and_grad(x)
        assert _bits(pot) == _bits(target.potential(x))
        assert _bits(grad) == _bits(target.gradient(x))

    def test_hand_built_target_composes_its_callables(self):
        g = make_gaussian(2, 1.0)
        hand = TargetModel(dimension=2, potential=g.potential, gradient=g.gradient)
        x = np.array([[0.5, -1.0], [2.0, 3.0]])
        pot, grad = hand.value_and_grad(x)
        assert np.array_equal(pot, g.potential(x))
        assert np.array_equal(grad, g.gradient(x))


class TestTargetModel:
    def test_bad_directions_without_columns_refused(self):
        # An earlier version accepted a (d, 0) matrix, and the good-set check
        # and the probes then failed on numpy's empty-reduction error.
        g = make_gaussian(2, 1.0)
        with pytest.raises(ValueError, match="bad_directions has no columns"):
            TargetModel(dimension=2, potential=g.potential, gradient=g.gradient, bad_directions=np.empty((2, 0)))

    def test_bad_directions_nan_refused(self):
        # A NaN column passed the unit-norm test at an earlier version.
        g = make_gaussian(2, 1.0)
        with pytest.raises(ValueError, match="finite and unit norm"):
            TargetModel(dimension=2, potential=g.potential, gradient=g.gradient,
                        bad_directions=np.array([[1.0, np.nan], [0.0, 0.0]]))

    def test_bad_directions_vector_refused(self):
        # An earlier version read bd.shape[1] of a 1-D vector and raised IndexError.
        g = make_gaussian(2, 1.0)
        with pytest.raises(ValueError, match="bad_directions must be a"):
            TargetModel(dimension=2, potential=g.potential, gradient=g.gradient, bad_directions=np.array([1.0, 0.0]))
