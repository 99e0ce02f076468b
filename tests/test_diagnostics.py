"""Grids, TV, Cheeger/conductance, kernels, mixing, scaling, tails."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr

from malakit import diagnostics
from malakit.chains import ChainConfig, run_mala
from malakit.diagnostics import (
    FitFailed,
    ScalingFit,
    acceptance_stats,
    cheeger_1d,
    conductance,
    detailed_balance_violation,
    energy_error_scaling,
    hanson_wright_check,
    hitting_time,
    mixing_time_estimate,
    transition_matrix_1d,
)
from malakit.grids import EmptySupportError, GridDistribution, grid_truth, histogram, tv_distance
from malakit.rng import chain_rng
from malakit.targets import (
    ConstraintSet,
    Dataset,
    TargetModel,
    annulus,
    make_gaussian,
    make_logistic_regression,
)

STD_1D = make_gaussian(1, 1.0)


def flat_target(d):
    return TargetModel(
        dimension=d,
        potential=lambda x: np.zeros(np.asarray(x, dtype=float).shape[:-1]),
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        name=f"flat-{d}",
    )


def gaussian_grid(bins=400, lo=-8.0, hi=8.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return grid_truth(STD_1D, (lo, hi), bins)


def flat_grid(bins, lo=0.0, hi=1.0):
    # the flat "target" genuinely carries boundary mass on any window;
    # the truncation warning is expected here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return grid_truth(flat_target(1), (lo, hi), bins)


def std_density(t):
    return math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)


class TestGridTruth:
    def test_flat_is_uniform(self):
        g = flat_grid(4)
        assert np.allclose(g.mass, 0.25)

    def test_matches_gaussian_cdf(self):
        g = gaussian_grid()
        edges = g.edges(0)
        cdf_mass = ndtr(edges[1:]) - ndtr(edges[:-1])
        assert np.max(np.abs(g.mass - cdf_mass)) <= 1e-4

    def test_constraint_missing_grid(self):
        ring = annulus(50.0, 60.0)
        g2 = make_gaussian(2, 1.0)
        with pytest.raises(EmptySupportError):
            grid_truth(g2, ((-1, 1), (-1, 1)), 8, constraint=ring)

    def test_boundary_mass_warns(self):
        with pytest.warns(UserWarning):
            grid_truth(STD_1D, (-1.0, 1.0), 16)

    def test_too_few_bins_raise_before_any_warning(self):
        # An earlier version warned that the boundary cells carry all of the
        # mass before it refused the one-bin grid.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="need at least 2 bins per axis"):
                grid_truth(STD_1D, (-8.0, 8.0), 1)

    @pytest.mark.parametrize("bins", [0, -3])
    def test_bin_count_is_checked_before_the_mesh(self, bins):
        # An earlier version failed on these with a message about something
        # else: "no grid cell carries mass", or numpy's "Number of samples".
        with pytest.raises(ValueError, match="need at least 2 bins per axis"):
            grid_truth(STD_1D, (-8.0, 8.0), bins)
        with pytest.raises(ValueError, match="need at least 2 bins per axis"):
            histogram(np.zeros(5), (-8.0, 8.0), bins)


class TestHistogram:
    def test_single_sample(self):
        h = histogram(np.array([0.5]), (0.0, 1.0), 4)
        assert h.mass.sum() == 1.0
        assert np.count_nonzero(h.mass) == 1

    def test_midpoint_samples_uniform(self):
        g = flat_grid(8)
        mids = g.midpoints(0)
        h = histogram(np.repeat(mids, 5), (0.0, 1.0), 8)
        assert np.allclose(h.mass, 1.0 / 8.0)

    def test_off_grid_samples_stay_out_of_the_mass(self):
        h = histogram(np.array([0.5, 2.0, -3.0, 0.1]), (0.0, 1.0), 4)
        assert h.mass.tolist() == [0.5, 0.0, 0.5, 0.0]

    def test_empty_support(self):
        with pytest.raises(EmptySupportError):
            histogram(np.array([5.0]), (0.0, 1.0), 4)

    def test_large_sample_tv_to_truth(self):
        rng = chain_rng(1)
        h = histogram(rng.standard_normal(10**6), (-8.0, 8.0), 400)
        assert tv_distance(h, gaussian_grid()) <= 0.01


def histogramdd_mass(x, lower, upper, bins):
    """The reference binning: keep the samples inside the closed bounds, bin
    them with ``np.histogramdd`` on ``linspace`` edges and normalize; None
    when nothing is inside."""
    inside = np.all((x >= np.array(lower)) & (x <= np.array(upper)), axis=1)
    if not inside.any():
        return None
    edges = [np.linspace(lo, hi, b + 1) for lo, hi, b in zip(lower, upper, bins)]
    counts, _ = np.histogramdd(x[inside], bins=edges)
    return counts / counts.sum()


@st.composite
def grid_and_samples(draw):
    """A 1D or 2D grid, samples built from its edges, one ulp outside each
    bound, NaN and uniform draws around it (or, with ``outside``, off the
    grid on axis 0 only), and a random truth mass on the grid."""
    dims = draw(st.integers(1, 2))
    outside = draw(st.booleans())
    n = draw(st.integers(1, 40))
    lower, upper, bins, columns = [], [], [], []
    for axis in range(dims):
        lo = draw(st.floats(-1e3, 1e3))
        hi = lo + draw(st.floats(1e-3, 1e3))
        b = draw(st.integers(2, 12))
        rng = chain_rng(draw(st.integers(0, 2**31)))
        off = [np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), np.nan, lo - 1.0, hi + 1.0]
        if outside and axis == 0:
            pool = np.array(off)
        else:
            pool = np.concatenate([np.linspace(lo, hi, b + 1), off, lo + (hi - lo) * rng.uniform(-0.5, 1.5, 8)])
        idx = draw(st.lists(st.integers(0, pool.size - 1), min_size=n, max_size=n))
        lower.append(lo)
        upper.append(hi)
        bins.append(b)
        columns.append(pool[idx])
    mass = rng.random(bins) + 1e-3
    truth = GridDistribution(tuple(lower), tuple(upper), tuple(bins), mass / mass.sum())
    return np.stack(columns, axis=1), truth


class TestBinningMatchesHistogramdd:
    @settings(max_examples=300, deadline=None)
    @given(case=grid_and_samples(), flat=st.booleans())
    def test_bit_for_bit(self, case, flat):
        x, truth = case
        bounds = tuple(zip(truth.lower, truth.upper))
        ref = histogramdd_mass(x, truth.lower, truth.upper, truth.bins)
        samples = x[:, 0] if flat and truth.dims == 1 else x
        if ref is None:
            with pytest.raises(EmptySupportError):
                histogram(samples, bounds, truth.bins)
            with pytest.raises(EmptySupportError):
                truth.tv_to_samples(samples)
            return
        h = histogram(samples, bounds, truth.bins)
        assert h.mass.tobytes() == ref.tobytes()
        expected = tv_distance(GridDistribution(truth.lower, truth.upper, truth.bins, ref), truth)
        assert truth.tv_to_samples(samples) == expected == tv_distance(h, truth)

    def test_all_outside_refused(self):
        grid = flat_grid(4)
        samples = np.array([np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0), np.nan, -np.inf, np.inf])
        with pytest.raises(EmptySupportError):
            histogram(samples, (0.0, 1.0), 4)
        with pytest.raises(EmptySupportError):
            grid.tv_to_samples(samples)

    def test_last_edge_in_last_cell(self):
        assert histogram(np.array([1.0, 0.0]), (0.0, 1.0), 4).mass.tolist() == [0.5, 0.0, 0.0, 0.5]


class TestTvDistance:
    def _grid(self, mass):
        mass = np.asarray(mass, dtype=float)
        return GridDistribution(lower=(0.0,), upper=(1.0,), bins=(mass.size,), mass=mass / mass.sum())

    def test_identical_zero(self):
        g = self._grid([0.3, 0.7])
        assert tv_distance(g, g) == 0.0

    def test_disjoint_one(self):
        a = self._grid([1.0, 0.0])
        b = self._grid([0.0, 1.0])
        assert tv_distance(a, b) == 1.0

    def test_two_cell_example(self):
        a = self._grid([0.7, 0.3])
        b = self._grid([0.5, 0.5])
        assert tv_distance(a, b) == pytest.approx(0.2)

    def test_metric_properties(self):
        rng = chain_rng(2)
        for _ in range(20):
            masses = rng.random((3, 6)) + 1e-3
            a, b, c = (self._grid(m) for m in masses)
            assert tv_distance(a, b) == tv_distance(b, a)
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12
        assert tv_distance(self._grid([0.4, 0.6]), self._grid([0.4, 0.6])) == 0.0

    def test_geometry_mismatch(self):
        a = self._grid([0.5, 0.5])
        b = GridDistribution(lower=(0.0,), upper=(2.0,), bins=(2,), mass=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            tv_distance(a, b)


class TestCheeger:
    def test_uniform_is_two(self):
        g = flat_grid(100)
        assert cheeger_1d(g, lambda t: 1.0) == pytest.approx(2.0, rel=1e-9)

    def test_standard_gaussian(self):
        # exhaustive cut search oracle: min over t of phi(t)/Phi_side; attained at 0
        value = cheeger_1d(gaussian_grid(), std_density)
        assert value == pytest.approx(std_density(0.0) / 0.5, rel=1e-2)

    def test_dilation_scaling(self):
        base = cheeger_1d(gaussian_grid(), std_density)
        for c in (2.0, 4.0):
            scaled = make_gaussian(1, 1.0 / c**2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                grid = grid_truth(scaled, (-8.0 * c, 8.0 * c), 400)
            dens = lambda t, c=c: std_density(t / c) / c
            assert cheeger_1d(grid, dens) == pytest.approx(base / c, rel=2e-2)


class TestTransitionMatrix:
    def _logistic_1d(self):
        feats = np.array([[1.0, -1.0, 1.0]])
        data = Dataset(features=feats, responses=np.array([1, 0, 1]))
        return make_logistic_regression(data, 0.5)

    def test_rows_sum_to_one(self):
        grid = gaussian_grid()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lgrid = grid_truth(self._logistic_1d(), (-10.0, 10.0), 300)
        for target, g in ((STD_1D, grid), (self._logistic_1d(), lgrid)):
            for kind in ("mala", "rwm"):
                kernel = transition_matrix_1d(target, kind, 0.1, g)
                assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) <= 1e-9

    def test_flat_rwm_symmetric(self):
        g = flat_grid(50)
        kernel = transition_matrix_1d(flat_target(1), "rwm", 0.05, g)
        assert np.max(np.abs(kernel - kernel.T)) <= 1e-15

    def test_detailed_balance(self):
        grid = gaussian_grid(bins=200)
        pi = grid.mass
        for kind in ("mala", "rwm"):
            kernel = transition_matrix_1d(STD_1D, kind, 0.1, grid)
            flux = pi[:, None] * kernel
            violation = np.max(np.abs(flux - flux.T)) / np.max(flux)
            assert violation <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(c1=st.floats(-1.0, 1.0), c2=st.floats(-1.0, 1.0), c3=st.floats(-0.3, 0.3),
           c4=st.floats(0.1, 1.0), kind=st.sampled_from(["mala", "rwm"]), eta=st.floats(0.2, 0.6))
    def test_detailed_balance_on_random_potentials(self, c1, c2, c3, c4, kind, eta, row_by_row):
        # U(x) = c1 x + c2 x^2 + c3 x^3 + c4 x^4: smooth, confining, possibly
        # double-welled.  Only + and * so a row-by-row copy rounds identically.
        def potential(x):
            x = np.asarray(x, dtype=float)
            return (x * (c1 + x * (c2 + x * (c3 + x * c4)))).sum(axis=-1)

        def gradient(x):
            x = np.asarray(x, dtype=float)
            return c1 + x * (2.0 * c2 + x * (3.0 * c3 + x * (4.0 * c4)))

        target = TargetModel(dimension=1, potential=potential, gradient=gradient, name="quartic")
        rowwise = row_by_row(target)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            grid = grid_truth(target, (-8.0, 8.0), 200)
            assert np.array_equal(grid_truth(rowwise, (-8.0, 8.0), 200).mass, grid.mass)
        kernel = transition_matrix_1d(target, kind, eta, grid)
        assert np.array_equal(transition_matrix_1d(rowwise, kind, eta, grid), kernel)
        flux = grid.mass[:, None] * kernel
        assert np.max(np.abs(flux - flux.T)) <= 1e-8 * np.max(flux)

    # 60 rows: one block at the module's size, then 6 blocks of 10, then 8
    # blocks of 7 and a remainder of 4, then 60 blocks of one row
    @pytest.mark.parametrize("entries", [None, 600, 420, 1], ids=["one", "several", "remainder", "rows"])
    @pytest.mark.parametrize("kind", ["mala", "rwm"])
    def test_row_blocks_equal_the_dense_form(self, monkeypatch, entries, kind):
        if entries is not None:
            monkeypatch.setattr(diagnostics, "_BLOCK_ENTRIES", entries)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cases = ((STD_1D, gaussian_grid(bins=60)),
                     (self._logistic_1d(), grid_truth(self._logistic_1d(), (-10.0, 10.0), 60)))
        for target, grid in cases:
            for eta in (0.05, 0.1, 0.5):
                kernel = transition_matrix_1d(target, kind, eta, grid)
                assert kernel.tobytes() == dense_kernel(target, kind, eta, grid).tobytes()

    @pytest.mark.parametrize("eta", [1e-200, 1e-160, 1e200])
    def test_non_finite_kernel_refused_naming_eta(self, eta):
        # 2 eta^2 underflows to 0 at 1e-200, diff^2 / (2 eta^2) overflows at
        # 1e-160, and eta^2 / 2 times the gradient overflows at 1e200; an
        # earlier version returned every mala entry as NaN, with a
        # RuntimeWarning, and let conductance count the NaNs
        with pytest.raises(ValueError, match=re.escape(f"the kernel at eta={eta} has non-finite entries")):
            transition_matrix_1d(STD_1D, "mala", eta, gaussian_grid(bins=100))

    @pytest.mark.parametrize("eta", [1e-200, 1e-320])
    def test_rwm_at_a_tiny_eta_is_the_identity(self, eta):
        # every proposal density off the diagonal underflows to 0: nothing moves
        assert np.array_equal(transition_matrix_1d(STD_1D, "rwm", eta, gaussian_grid(bins=100)), np.eye(100))

    def test_power_iteration_contracts(self):
        grid = gaussian_grid(bins=200, lo=-6.0, hi=6.0)
        kernel = transition_matrix_1d(STD_1D, "mala", 0.5, grid)
        mu = np.full(grid.bins[0], 1.0 / grid.bins[0])
        last = tv_distance(GridDistribution(grid.lower, grid.upper, grid.bins, mu), grid)
        for _ in range(60):
            mu = mu @ kernel
            now = 0.5 * float(np.abs(mu - grid.mass).sum())
            assert now <= last + 1e-12
            last = now
        assert last <= 0.01

    def test_warm_start_preserved_under_kernel(self, warmness_on_grid):
        # a detailed-balance kernel never increases warmness: if mu_0 is
        # beta-warm then so is every mu_k
        grid = gaussian_grid(bins=200, lo=-6.0, hi=6.0)
        kernel = transition_matrix_1d(STD_1D, "mala", 0.5, grid)
        mass = grid.mass.copy()
        mu = np.where(np.abs(grid.midpoints(0)) <= 1.0, mass, 0.0)
        mu /= mu.sum()  # pi restricted to an event: warmness 1 / pi(event)
        beta0 = warmness_on_grid(
            GridDistribution(grid.lower, grid.upper, grid.bins, mu), grid)
        for _ in range(30):
            mu = mu @ kernel
            beta = warmness_on_grid(
                GridDistribution(grid.lower, grid.upper, grid.bins, mu / mu.sum()), grid)
            assert beta <= beta0 * (1.0 + 1e-10)


def dense_kernel(target, kind, eta, grid):
    """The whole-matrix form of ``transition_matrix_1d``, every n x n
    intermediate at once: the reference its row blocks must equal bit for bit."""
    mids = grid.midpoints(0)
    width = grid.widths()[0]
    if kind == "mala":
        pot, grad = target.value_and_grad(mids[:, None])
        mean = mids - 0.5 * eta * eta * np.asarray(grad, dtype=float)[:, 0]
    else:
        pot, mean = target.potential(mids[:, None]), mids
    log_pi = -np.asarray(pot, dtype=float)
    diff = mids[None, :] - mean[:, None]
    log_q = -(diff * diff) / (2.0 * eta * eta) - math.log(eta * math.sqrt(2.0 * math.pi))
    if kind == "mala":
        log_ratio = (log_pi[None, :] + log_q.T) - (log_pi[:, None] + log_q)
    else:
        log_ratio = log_pi[None, :] - log_pi[:, None]
    kernel = np.exp(log_q) * np.exp(np.minimum(0.0, log_ratio)) * width
    np.fill_diagonal(kernel, 0.0)
    np.fill_diagonal(kernel, np.maximum(0.0, 1.0 - kernel.sum(axis=1)))
    return kernel


def dense_prefix_conductance(kernel, mass):
    """The prefix-cut conductance from whole-matrix cumulative sums: the
    reference for the running sums that ``conductance`` takes over row blocks."""
    flux = mass[:, None] * kernel
    suffix = np.cumsum(flux[:, ::-1], axis=1)[:, ::-1]
    prefix = np.cumsum(flux, axis=1)
    top = np.cumsum(suffix, axis=0)
    bottom = np.cumsum(prefix[::-1, :], axis=0)[::-1, :]
    flow = np.concatenate([np.diagonal(top, 1), np.diagonal(bottom, -1)])
    side = np.concatenate([np.cumsum(mass)[:-1], np.cumsum(mass[::-1])[::-1][1:]])
    cut = (side > 0.0) & (side <= 0.5 + 1e-12)
    return float((flow[cut] / side[cut]).min()) if cut.any() else math.inf


def dense_balance_violation(kernel, mass):
    flux = mass[:, None] * kernel
    return float(np.max(np.abs(flux - flux.T)) / np.max(flux))


def reference_conductance(kernel, pi, random_subsets=10000, seed=0):
    """The conductance of the earlier implementation: prefix cuts plus
    ``random_subsets`` random masks from ``chain_rng(seed)``, every mask at
    once.  Kept to pin the gate and benchmark values to what it gave."""
    def min_cut_ratio(flow_out, flow_in, mass):
        cap = 0.5 + 1e-12
        comp = 1.0 - mass
        own, other = (mass > 0.0) & (mass <= cap), (comp > 0.0) & (comp <= cap)
        ratios = np.concatenate([flow_out[own] / mass[own], flow_in[other] / comp[other]])
        return float(ratios.min()) if ratios.size else math.inf

    kernel = np.asarray(kernel, dtype=float)
    p = pi.mass.ravel()
    flux = p[:, None] * kernel
    suffix = np.cumsum(flux[:, ::-1], axis=1)[:, ::-1]
    prefix = np.cumsum(flux, axis=1)
    top = np.cumsum(suffix, axis=0)
    bottom = np.cumsum(prefix[::-1, :], axis=0)[::-1, :]
    best = min_cut_ratio(np.diagonal(top, 1), np.diagonal(bottom, -1), np.cumsum(p)[:-1])
    if random_subsets > 0:
        masks = (chain_rng(seed).random((random_subsets, p.size)) < 0.5).astype(float)
        row_flow = masks @ flux
        internal = np.einsum("kj,kj->k", row_flow, masks)
        flow_out = row_flow.sum(axis=1) - internal
        flow_in = masks @ flux.sum(axis=0) - internal
        best = min(best, min_cut_ratio(flow_out, flow_in, masks @ p))
    return best


def line_grid(mass):
    return GridDistribution(lower=(0.0,), upper=(1.0,), bins=(len(mass),), mass=np.asarray(mass))


def prefix_cuts(n):
    """The cuts {0..k-1} and their complements."""
    return [tuple(range(k)) for k in range(1, n)] + [tuple(range(k, n)) for k in range(1, n)]


class TestConductance:
    def _two_state(self, p):
        pi = GridDistribution(lower=(0.0,), upper=(1.0,), bins=(2,), mass=np.array([0.5, 0.5]))
        kernel = np.array([[1.0 - p, p], [p, 1.0 - p]])
        return kernel, pi

    def test_identity_is_zero(self):
        _, pi = self._two_state(0.3)
        assert conductance(np.eye(2), pi) == 0.0

    def test_two_state_flip(self):
        kernel, pi = self._two_state(0.3)
        assert conductance(kernel, pi) == pytest.approx(0.3)

    def test_kernel_conductance_below_half(self):
        grid = gaussian_grid(bins=100, lo=-6.0, hi=6.0)
        for kind, eta in (("mala", 0.1), ("rwm", 0.5)):
            kernel = transition_matrix_1d(STD_1D, kind, eta, grid)
            assert 0.0 < conductance(kernel, grid) <= 0.5

    def test_cheeger_link_direction(self):
        grid = gaussian_grid()
        psi = cheeger_1d(grid, std_density)
        for eta in (0.05, 0.1, 0.2):
            kernel = transition_matrix_1d(STD_1D, "mala", eta, grid)
            assert conductance(kernel, grid) >= 0.01 * eta * psi

    # the brute-force fixture is a pure function, so sharing it across examples is safe
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(2, 12), data_seed=st.integers(0, 2**32 - 1),
           density=st.floats(0.05, 1.0), zero_mass=st.floats(0.0, 0.5),
           subnormal=st.sampled_from([5e-324, 2.2e-310]), subnormal_frac=st.floats(0.0, 1.0))
    def test_equals_brute_force_on_random_kernels(self, brute_force_conductance, n, data_seed,
                                                  density, zero_mass, subnormal, subnormal_frac):
        rng = np.random.default_rng(data_seed)
        mass = rng.random(n) * (rng.random(n) >= zero_mass)
        mass[rng.integers(n)] += 0.1
        kernel = rng.random((n, n)) * (rng.random((n, n)) < density) + np.eye(n) * 1e-3
        kernel /= kernel.sum(axis=1, keepdims=True)
        # subnormals only where the kernel is 0, so every row still sums to 1
        kernel[(kernel == 0.0) & (rng.random((n, n)) < subnormal_frac)] = subnormal
        pi = line_grid(mass / mass.sum())
        assert conductance(kernel, pi) == pytest.approx(
            brute_force_conductance(kernel, pi.mass), rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(3, 39), data_seed=st.integers(0, 2**32 - 1), log_delta=st.floats(-18.0, -12.0),
           concentration=st.floats(0.05, 1.0))
    def test_lazy_kernels_never_negative(self, brute_force_conductance, n, data_seed, log_delta,
                                         concentration):
        # nearly the identity: every cut flow is about delta, far below the
        # rounding of a side mass, so a flow formed as a total minus a part
        # would come out as noise of either sign; a low concentration gives
        # tail states of tiny mass, whose side mass 1 - pi(rest) would lose
        rng = np.random.default_rng(data_seed)
        delta = 10.0**log_delta
        kernel = (1.0 - delta) * np.eye(n) + delta * rng.dirichlet(np.ones(n), size=n)
        pi = line_grid(rng.dirichlet(np.full(n, concentration)))
        value = conductance(kernel, pi)
        assert value >= 0.0
        cuts = None if n <= 16 else prefix_cuts(n)
        assert value == pytest.approx(brute_force_conductance(kernel, pi.mass, cuts), rel=1e-12, abs=0.0)

    def test_subnormal_flows_are_kept(self, brute_force_conductance):
        # the odd states hold subnormal mass, so every flow out of a set of
        # them is subnormal; the least cut, {1, 3, 5} at 0.1, is no prefix
        # cut, and a flush to zero would read it as 0
        odd = np.arange(6) % 2 == 1
        pi = line_grid(np.where(odd, 1e-310, (1.0 - 3e-310) / 3.0))
        kernel = np.where(odd[:, None], np.where(odd, 0.3, 0.1 / 3.0), 1.0 / 6.0)
        flux = pi.mass[:, None] * kernel
        assert np.all((flux[1::2] > 0.0) & (flux[1::2] < np.finfo(float).tiny))
        value = conductance(kernel, pi)
        assert value == pytest.approx(0.1, rel=1e-9)
        assert value == pytest.approx(brute_force_conductance(kernel, pi.mass), rel=1e-12, abs=0.0)
        assert brute_force_conductance(kernel, pi.mass, prefix_cuts(6)) > 0.3

    @pytest.mark.parametrize("kind,eta", [("mala", 0.05), ("mala", 0.1), ("mala", 0.2), ("rwm", 0.1)])
    def test_gate_and_benchmark_kernels_pinned(self, kind, eta):
        # gate criterion 06's kernels (mala 0.05, 0.1, 0.2), the benchmark's
        # (mala 0.1) and rwm: the prefix cuts give the value the random masks
        # of the earlier implementation never beat
        grid = gaussian_grid()
        kernel = transition_matrix_1d(STD_1D, kind, eta, grid)
        value = conductance(kernel, grid)
        assert value == reference_conductance(kernel, grid, 0)
        for seed in (3, 11, 23):
            assert value == reference_conductance(kernel, grid, 10000, seed)

    def test_non_finite_entries_rejected(self):
        kernel, pi = self._two_state(0.3)
        for bad in (math.nan, math.inf):
            kernel[0, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                conductance(kernel, pi)

    def test_negative_entries_rejected(self):
        kernel = np.array([[1.5, -0.5], [0.3, 0.7]])
        _, pi = self._two_state(0.3)
        with pytest.raises(ValueError, match="1 negative"):
            conductance(kernel, pi)

    def test_rows_off_one_rejected(self):
        kernel, pi = self._two_state(0.3)
        kernel[1] = [0.5 + 1e-10, 0.5 + 1e-10]  # off by 2e-10: inside the tolerance
        conductance(kernel, pi)
        kernel[0] *= 2.0
        with pytest.raises(ValueError, match="1 rows do not sum to 1"):
            conductance(kernel, pi)

    def test_every_problem_listed_at_once(self):
        kernel = np.array([[math.nan, 1.0], [-1.0, 3.0]])
        _, pi = self._two_state(0.3)
        with pytest.raises(ValueError) as err:
            conductance(kernel, pi)
        for part in ("1 non-finite", "1 negative", "rows do not sum to 1"):
            assert part in str(err.value)


class TestMixingTime:
    def test_stationary_start_mixed_at_first_check(self):
        truth = gaussian_grid(bins=60, lo=-6.0, hi=6.0)

        def init(rng, n):
            return truth.sample_midpoints(rng, n)

        est, _ = mixing_time_estimate(STD_1D, "mala", 0.5, init, 0.1, replicas=500, check_every=5,
                                      seed=4, grid_bounds=(-6.0, 6.0), grid_bins=60, max_iterations=100)
        assert est == 5

    def test_budget_exhaustion_returns_none(self):
        def far_init(rng, n):
            return np.full((n, 1), 30.0)

        est, _ = mixing_time_estimate(STD_1D, "mala", 0.01, far_init, 0.01, replicas=200, check_every=2,
                                      seed=5, grid_bounds=(-6.0, 6.0), grid_bins=60, max_iterations=10)
        assert est is None

    def test_mala_not_slower_than_rwm(self):
        def warm(rng, n):
            return 0.5 * rng.standard_normal((n, 1)) + 1.5

        kwargs = dict(tv_threshold=0.1, replicas=1500, check_every=2, seed=6,
                      grid_bounds=(-6.0, 6.0), grid_bins=60, max_iterations=2000)
        mala, _ = mixing_time_estimate(STD_1D, "mala", 0.5, warm, **kwargs)
        rwm, _ = mixing_time_estimate(STD_1D, "rwm", 0.5, warm, **kwargs)
        assert mala is not None and rwm is not None
        assert mala <= rwm

    def test_replica_floor_validation(self):
        with pytest.raises(ValueError):
            mixing_time_estimate(STD_1D, "mala", 0.5, lambda r, n: np.zeros((n, 1)), 0.1,
                                 replicas=10, check_every=1, seed=0, grid_bounds=(-6, 6),
                                 grid_bins=30, max_iterations=10)


class TestHittingTime:
    def test_init_in_set(self):
        trace = run_mala(STD_1D, ChainConfig(step_size=0.5, iterations=10, seed=7), np.zeros(1))
        everywhere = ConstraintSet(membership=lambda x: np.ones(np.asarray(x).shape[:-1], dtype=bool))
        assert hitting_time(trace, everywhere) == 0

    def test_never_hit(self):
        trace = run_mala(STD_1D, ChainConfig(step_size=0.5, iterations=50, seed=8), np.zeros(1))
        nowhere = ConstraintSet(membership=lambda x: np.zeros(np.asarray(x).shape[:-1], dtype=bool))
        assert hitting_time(trace, nowhere) is None

    def test_matches_linear_scan_oracle(self):
        trace = run_mala(STD_1D, ChainConfig(step_size=0.5, iterations=500, seed=9), np.zeros(1))
        target_set = ConstraintSet(membership=lambda x: np.asarray(x, dtype=float)[..., 0] > 1.5)
        expected = None
        for index, state in zip(trace.indices, trace.states):
            if state[0] > 1.5:
                expected = int(index)
                break
        assert hitting_time(trace, target_set) == expected


class TestEnergyScaling:
    ETAS = [0.4, 0.2, 0.1, 0.05, 0.025]

    def test_gaussian_slope_band(self):
        fit = energy_error_scaling(STD_1D, self.ETAS, 4000, 10)
        assert 2.5 <= fit.slope <= 4.5
        assert fit.r_squared >= 0.99

    def test_logistic_slope(self):
        from malakit.targets import sample_sphere_dataset

        data = sample_sphere_dataset(5, 20, 0.7, 2)
        t = make_logistic_regression(data, 1.0)
        fit = energy_error_scaling(t, self.ETAS, 4000, 10)
        assert fit.slope >= 2.5

    def test_validation(self):
        with pytest.raises(ValueError):
            energy_error_scaling(STD_1D, [0.1, 0.2], 100, 0)
        with pytest.raises(ValueError):
            energy_error_scaling(STD_1D, [0.1, 0.2, 0.3], 100, 0)  # < one decade
        with pytest.raises(ValueError):
            energy_error_scaling(STD_1D, [2.0, 0.2, 0.02], 100, 0)  # unstable eta

    def test_no_fit_without_spread(self):
        # Repeated step sizes divided by zero at an earlier version.
        with pytest.raises(FitFailed, match="no spread"):
            ScalingFit.from_logs([math.log(0.5)] * 3, [1.0, 2.0, 3.0])


class TestAcceptanceStats:
    GOLDEN_ACCEPT = 0.9900  # long-run accepted fraction, 1D unit Gaussian, eta = 0.5

    def test_flat_target(self):
        trace = run_mala(flat_target(1), ChainConfig(step_size=0.5, iterations=200, seed=11), np.zeros(1))
        stats_ = acceptance_stats(trace)
        assert stats_.mean == 1.0
        assert stats_.accepted_fraction == 1.0

    def test_all_rejected_synthetic(self):
        from malakit.chains import ChainTrace

        trace = ChainTrace(
            init_state=np.zeros(1), indices=[1, 2, 3], states=np.zeros((3, 1)),
            energy_errors=[5.0, 5.0, 5.0],
            accepted=[False, False, False], potentials=[0.0, 0.0, 0.0],
            gradient_evals=6, function_evals=4,
        )
        assert acceptance_stats(trace).accepted_fraction == 0.0

    def test_against_golden_long_run(self):
        trace = run_mala(STD_1D, ChainConfig(step_size=0.5, iterations=10**5, seed=123), np.zeros(1))
        assert acceptance_stats(trace).accepted_fraction == pytest.approx(self.GOLDEN_ACCEPT, abs=0.02)


class TestHansonWright:
    def test_chi_square_oracle_d10(self):
        xi = math.sqrt(20.0)
        report = hanson_wright_check(10, xi, 10**5, 12)
        assert report.bound == pytest.approx(math.exp(-10.0 / 8.0), rel=1e-12)
        oracle = float(stats.chi2.sf(20.0, df=10))
        assert report.empirical == pytest.approx(oracle, abs=4.0 * math.sqrt(oracle / 10**5))
        assert report.holds

    def test_normal_oracle_d1(self):
        report = hanson_wright_check(1, 2.0, 10**5, 13)
        oracle = 2.0 * float(ndtr(-2.0))
        assert report.empirical == pytest.approx(oracle, abs=4.0 * math.sqrt(oracle / 10**5))
        assert report.bound == pytest.approx(math.exp(-3.0 / 8.0), rel=1e-12)
        assert report.holds

    def test_far_tail_holds(self):
        report = hanson_wright_check(5, 20.0, 10**4, 14)
        assert report.empirical == 0.0
        assert report.holds

    def test_xi_validation(self):
        with pytest.raises(ValueError):
            hanson_wright_check(10, math.sqrt(20.0) - 0.1, 10**4, 0)

    def test_xi_nan_refused(self):
        # NaN passed an earlier ``xi < sqrt(2 d)`` test and reported a NaN bound.
        with pytest.raises(ValueError, match="the bound needs xi >= sqrt"):
            hanson_wright_check(10, math.nan, 10**4, 0)

    def test_xi_inf_refused(self):
        # An earlier version reported a bound and a tail of 0 at xi = inf.
        with pytest.raises(ValueError, match="the bound needs a finite xi, got inf"):
            hanson_wright_check(10, math.inf, 10**4, 0)

    @pytest.mark.parametrize("d", [0, -3])
    def test_dimension_validation(self, d):
        # d = 0 reported on a 0-dimensional Gaussian at an earlier version,
        # and d = -3 failed with "math domain error".
        with pytest.raises(ValueError, match=f"dimension d must be >= 1, got {d}"):
            hanson_wright_check(d, 1.0, 10**4, 0)

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_row_blocks_move_no_draw(self, monkeypatch, d):
        # Blocks of 7 entries are 7, 2 and 1 rows at d = 1, 3 and 10; the
        # count must be the one of a single (n, d) draw from the same stream.
        xi, n, seed = math.sqrt(2.0 * d), 10**4, 21
        z = chain_rng(seed).standard_normal((n, d))
        exceed = int(np.count_nonzero(np.sum(z * z, axis=1) > xi * xi))
        reports = [hanson_wright_check(d, xi, n, seed)]
        for entries in (7, 1000):
            monkeypatch.setattr(diagnostics, "_BLOCK_ENTRIES", entries)
            reports.append(hanson_wright_check(d, xi, n, seed))
        assert reports[0].empirical == exceed / n > 0.0
        assert reports[1] == reports[0] and reports[2] == reports[0]


class TestRowBlocks:
    """Conductance and the detailed-balance check run over row blocks and
    keep every bit of the whole-matrix form."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(17, 300), data_seed=st.integers(0, 2**32 - 1), density=st.floats(0.05, 1.0),
           zero_mass=st.floats(0.0, 0.5), block_rows=st.integers(1, 40))
    def test_conductance_and_balance_equal_the_dense_form(self, n, data_seed, density, zero_mass, block_rows):
        rng = np.random.default_rng(data_seed)
        mass = rng.random(n) * (rng.random(n) >= zero_mass)
        mass[rng.integers(n)] += 0.1
        kernel = rng.random((n, n)) * (rng.random((n, n)) < density) + np.eye(n) * 1e-3
        kernel /= kernel.sum(axis=1, keepdims=True)
        pi = line_grid(mass / mass.sum())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diagnostics, "_BLOCK_ENTRIES", block_rows * n)
            value = conductance(kernel, pi)
            violation = detailed_balance_violation(kernel, pi.mass)
        assert value == dense_prefix_conductance(kernel, pi.mass)
        assert violation == dense_balance_violation(kernel, pi.mass)

    def test_memory_is_one_kernel_plus_blocks(self):
        # At 1500 bins the kernel takes 18 MB; the whole-matrix form made five
        # more n x n arrays to build it and five to take its conductance.
        grid = gaussian_grid(bins=1500)
        tracemalloc.start()
        try:
            kernel = transition_matrix_1d(STD_1D, "mala", 0.1, grid)
            conductance(kernel, grid)
            detailed_balance_violation(kernel, grid.mass)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < kernel.nbytes + 4 * 2**20
