"""Chain measurement at desk scale.

Discretized transition kernels, Cheeger constants and conductance on 1D
grids, replica-based mixing-time estimates, energy-error scaling fits,
acceptance statistics, and the Gaussian-norm tail check.  Conductance is
exact up to 16 states, where every cut is searched; above that it is an
upper bound over the prefix cuts (exact for monotone 1D kernels).  It is
never negative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chains import ChainTrace, run_ensemble
from .grids import EmptySupportError, GridDistribution, grid_truth
from .integrator import leapfrog
from .rng import chain_rng, subseed
from .targets import ConstraintSet, TargetModel

__all__ = [
    "ScalingFit",
    "AcceptanceStats",
    "HansonWrightReport",
    "FitFailed",
    "cheeger_1d",
    "transition_matrix_1d",
    "conductance",
    "mixing_time_estimate",
    "hitting_time",
    "energy_error_scaling",
    "acceptance_stats",
    "hanson_wright_check",
]

_HALF_TOL = 1e-12
_ROW_SUM_TOL = 1e-9
_EXACT_STATES = 16  # conductance enumerates all 2**n cuts up to here: a 65,534 x 16 mask matrix at 16


class FitFailed(RuntimeError):
    """Too few usable step sizes, or no spread among them, to fit a scaling exponent."""


def cheeger_1d(pi: GridDistribution, density: Callable[[float], float]) -> float:
    """Isoperimetric constant of a 1D density by exhaustive half-line cuts.

    For each interior cell edge t the candidate ratio is density(t) divided
    by the smaller side mass (only sides with mass in (0, 1/2] compete).
    ``density`` must be the normalized density matching ``pi``.
    """
    if pi.dims != 1:
        raise ValueError("cheeger_1d needs a 1D grid")
    if pi.bins[0] < 2:
        raise ValueError("grid is degenerate")
    edges = pi.edges(0)[1:-1]
    left = np.cumsum(pi.mass)[:-1]
    best = math.inf
    for t, mass_left in zip(edges, left):
        side = min(float(mass_left), float(1.0 - mass_left))
        if side <= 0.0 or side > 0.5 + _HALF_TOL:
            continue
        best = min(best, float(density(float(t))) / side)
    if not math.isfinite(best):
        raise ValueError("no admissible cut found")
    return best


def transition_matrix_1d(target: TargetModel, kernel_kind: str, eta: float,
                         grid: GridDistribution) -> np.ndarray:
    """Row-stochastic discretization of the MALA or RWM kernel on a 1D grid.

    Off-diagonal entries are midpoint quadrature of proposal density times
    acceptance probability; rejection mass and any off-grid proposal mass
    are folded into the diagonal (the grid must be wide enough that the
    folded mass is negligible — checked by the row-sum tests).
    """
    if grid.dims != 1:
        raise ValueError("transition_matrix_1d needs a 1D grid")
    if kernel_kind not in ("mala", "rwm"):
        raise ValueError(f"unknown kernel kind {kernel_kind!r}")
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be finite and positive, got {eta}")
    mids = grid.midpoints(0)
    width = grid.widths()[0]
    if kernel_kind == "mala":
        pot, grad = target.value_and_grad(mids[:, None])
        mean = mids - 0.5 * eta * eta * np.asarray(grad, dtype=float)[:, 0]
    else:
        pot, mean = target.potential(mids[:, None]), mids
    log_pi = -np.asarray(pot, dtype=float)
    # log q[i, j]: proposal density from midpoint i to midpoint j
    diff = mids[None, :] - mean[:, None]
    log_q = -(diff * diff) / (2.0 * eta * eta) - math.log(eta * math.sqrt(2.0 * math.pi))
    if kernel_kind == "mala":
        log_ratio = (log_pi[None, :] + log_q.T) - (log_pi[:, None] + log_q)
    else:
        log_ratio = log_pi[None, :] - log_pi[:, None]
    accept = np.exp(np.minimum(0.0, log_ratio))
    kernel = np.exp(log_q) * accept * width
    np.fill_diagonal(kernel, 0.0)
    off_mass = kernel.sum(axis=1)
    if np.any(off_mass > 1.0 + _ROW_SUM_TOL):
        raise ValueError("off-diagonal mass exceeds 1; refine the grid or shrink eta")
    np.fill_diagonal(kernel, np.maximum(0.0, 1.0 - off_mass))
    return kernel


def _min_cut_ratio(flow: np.ndarray, mass: np.ndarray) -> float:
    """Least flow(S) / pi(S) over the cuts S whose mass lies in (0, 1/2]."""
    cut = (mass > 0.0) & (mass <= 0.5 + _HALF_TOL)
    return float((flow[cut] / mass[cut]).min()) if cut.any() else math.inf


def conductance(kernel: np.ndarray, pi: GridDistribution) -> float:
    """Kernel conductance: min over S with 0 < pi(S) <= 1/2 of
    flow(S, complement) / pi(S), where flow sums pi_i K_ij over i in S and
    j outside it.

    Up to ``_EXACT_STATES`` (16) states every nonempty proper subset is
    searched and the value is exact.  Above that only the prefix cuts
    {0..k-1} and their complements are searched, so the value is an upper
    bound (exact for monotone 1D kernels).  Every flow and side mass is
    summed from nonnegative terms, never formed as a total minus a part, so
    the value is never negative.

    Raises ``ValueError``, listing every problem, for a kernel with
    non-finite or negative entries or rows that do not sum to 1 (within
    1e-9).
    """
    kernel = np.asarray(kernel, dtype=float)
    p = pi.mass.ravel()
    n = p.size
    if kernel.shape != (n, n):
        raise ValueError("kernel and grid sizes differ")
    problems = []
    for what, bad in (("non-finite", ~np.isfinite(kernel)), ("negative", kernel < 0.0)):
        if bad.any():
            problems.append(f"{np.count_nonzero(bad)} {what} kernel entries")
    off = np.flatnonzero(np.abs(kernel.sum(axis=1) - 1.0) > _ROW_SUM_TOL)
    if off.size:
        problems.append(f"{off.size} rows do not sum to 1 within {_ROW_SUM_TOL:g} "
                        f"(first: row {off[0]})")
    if problems:
        raise ValueError("bad conductance input: " + "; ".join(problems))
    flux = p[:, None] * kernel

    if n <= _EXACT_STATES:
        # row k of ``inside`` is the subset with the bits of k + 1
        inside = ((np.arange(1, 2**n - 1)[:, None] >> np.arange(n)) & 1).astype(bool)
        flow = ((inside @ flux) * ~inside).sum(axis=1)
        return _min_cut_ratio(flow, inside @ p)

    # prefix cuts S = {0..k-1} and their complements, incremental flows
    suffix = np.cumsum(flux[:, ::-1], axis=1)[:, ::-1]     # suffix[i, k] = sum_{j >= k} flux[i, j]
    prefix = np.cumsum(flux, axis=1)                       # prefix[i, k] = sum_{j <= k} flux[i, j]
    top = np.cumsum(suffix, axis=0)                        # top[m, k] = sum_{i <= m} suffix[i, k]
    bottom = np.cumsum(prefix[::-1, :], axis=0)[::-1, :]   # bottom[m, k] = sum_{i >= m} prefix[i, k]
    # top[k-1, k]: flow from i < k to j >= k; bottom[k, k-1]: from i >= k to j < k
    flow = np.concatenate([np.diagonal(top, 1), np.diagonal(bottom, -1)])
    mass = np.concatenate([np.cumsum(p)[:-1], np.cumsum(p[::-1])[::-1][1:]])
    return _min_cut_ratio(flow, mass)


def mixing_time_estimate(
    target: TargetModel,
    sampler: str,
    eta: float,
    init: Callable[[np.random.Generator, int], np.ndarray],
    tv_threshold: float,
    replicas: int,
    check_every: int,
    seed: int,
    grid_bounds,
    grid_bins,
    max_iterations: int,
) -> int | None:
    """First iteration at which the replica ensemble is TV-close to truth.

    Runs ``replicas`` chains from ``init`` and, at multiples of
    ``check_every``, bins their positions on the grid truth's own geometry
    (:meth:`~GridDistribution.tv_to_samples`); the threshold applies to that
    TV minus the truth's :meth:`~GridDistribution.binning_floor` for as many
    samples (raw TV cannot reach zero under finite sampling).  A check with
    every replica off the grid counts as unmixed.  Returns ``None`` when the
    budget runs out.  Raises ValueError on bad arguments or a non-finite
    start from ``init``, and :class:`NumericFailure` from ``run_ensemble``.
    """
    if replicas < 100:
        raise ValueError("need at least 100 replicas for a TV estimate")
    if check_every < 1 or max_iterations < 1:
        raise ValueError("check_every and max_iterations must be >= 1")
    truth = grid_truth(target, grid_bounds, grid_bins)
    floor = truth.binning_floor(replicas, chain_rng(subseed(seed, 0)))

    init_rng = chain_rng(subseed(seed, 1))
    positions = np.asarray(init(init_rng, replicas), dtype=float)
    found: list[int] = []

    def check(step: int, x: np.ndarray) -> bool:
        try:
            tv = truth.tv_to_samples(x)
        except EmptySupportError:
            return False  # every replica off-grid: maximally unmixed, keep going
        if tv - floor <= tv_threshold:
            found.append(step)
            return True
        return False

    run_ensemble(target, sampler, eta, max_iterations, positions, subseed(seed, 2),
                 callback=check, callback_every=check_every)
    return found[0] if found else None


def hitting_time(trace: ChainTrace, target_set: ConstraintSet) -> int | None:
    """First chain index whose state lies in the set; 0 when the start does.

    Thinned traces are scanned over recorded states only.
    """
    if bool(target_set.contains(trace.init_state)):
        return 0
    inside = np.asarray(target_set.contains(trace.states), dtype=bool)
    hits = np.flatnonzero(inside)
    return int(trace.indices[hits[0]]) if hits.size else None


@dataclass(frozen=True)
class ScalingFit:
    """OLS fit of log-values against log-step-sizes."""

    slope: float
    r_squared: float

    @classmethod
    def from_logs(cls, log_x, log_y) -> "ScalingFit":
        """Least-squares line through the points ``(log_x[k], log_y[k])``."""
        xs, ys = np.asarray(log_x, dtype=float), np.asarray(log_y, dtype=float)
        x_mean, y_mean = xs.mean(), ys.mean()
        sxx = float(np.sum((xs - x_mean) ** 2))
        if sxx == 0.0:
            raise FitFailed(f"no spread in the log step sizes {xs.tolist()}")
        sxy = float(np.sum((xs - x_mean) * (ys - y_mean)))
        slope = sxy / sxx
        intercept = float(y_mean - slope * x_mean)
        resid = ys - (intercept + slope * xs)
        syy = float(np.sum((ys - y_mean) ** 2))
        r2 = 1.0 - float(np.sum(resid**2)) / syy if syy > 0 else 1.0
        return cls(slope=slope, r_squared=r2)


def energy_error_scaling(target: TargetModel, etas, samples_per_eta: int, seed: int) -> ScalingFit:
    """Fit the order of the one-step energy error in the step size.

    For the ``idx``-th eta, draws ``samples_per_eta`` standard normal
    positions, then as many standard normal velocities, from
    ``chain_rng(subseed(seed, idx))``; runs one leapfrog step on each, and
    averages |dH|.  The slope of log-mean against log-eta is the measured
    error order (3 in the generic small-step regime, up to 4 with quadratic
    symmetry).  On a Gaussian every eta must satisfy eta^2 M < 2, with M
    its largest precision, so that the leapfrog is stable.
    """
    etas = [float(e) for e in etas]
    if len(etas) < 3:
        raise ValueError("need at least 3 step sizes")
    if not all(0.0 < e < math.inf for e in etas):
        raise ValueError(f"step sizes must be finite and positive, got {etas}")
    if max(etas) / min(etas) < 10.0 * (1.0 - 1e-9):
        raise ValueError("step sizes must span at least one decade")
    if target.quadratic_precision is not None:
        m = float(np.max(target.quadratic_precision))
        if any(e * e * m >= 2.0 for e in etas):
            raise ValueError("all step sizes must satisfy eta^2 M < 2 (stability)")
    log_e, log_v = [], []
    for idx, eta in enumerate(etas):
        rng = chain_rng(subseed(seed, idx))
        x = rng.standard_normal((samples_per_eta, target.dimension))
        v = rng.standard_normal((samples_per_eta, target.dimension))
        pot, grad = (np.asarray(a, dtype=float) for a in target.value_and_grad(x))
        *_, d_h = leapfrog(target.value_and_grad, x, v, pot, grad, eta)
        mean_abs = float(np.mean(np.abs(d_h)))
        if not np.isfinite(mean_abs) or mean_abs <= 0.0:
            warnings.warn(f"dropping eta={eta:g}: non-finite or zero mean energy error", stacklevel=2)
            continue
        log_e.append(math.log(eta))
        log_v.append(math.log(mean_abs))
    if len(log_e) < 3:
        raise FitFailed("fewer than 3 step sizes produced finite energy errors")
    return ScalingFit.from_logs(log_e, log_v)


@dataclass(frozen=True)
class AcceptanceStats:
    mean: float
    accepted_fraction: float


def acceptance_stats(trace: ChainTrace) -> AcceptanceStats:
    """Mean per-step acceptance probability and accepted fraction of a trace."""
    return AcceptanceStats(mean=float(np.exp(trace.log_accepts).mean()),
                           accepted_fraction=float(trace.accepted.mean()))


@dataclass(frozen=True)
class HansonWrightReport:
    dimension: int
    xi: float
    empirical: float
    bound: float
    std_error: float
    holds: bool
    draws: int


def hanson_wright_check(d: int, xi: float, n: int, seed: int) -> HansonWrightReport:
    """Empirical P(|Z| > xi) for standard Gaussian Z against e^{-(xi^2-d)/8}.

    Only valid for xi >= sqrt(2d); holds when the empirical tail stays
    within three binomial standard errors of the bound.
    """
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    if xi < math.sqrt(2.0 * d) * (1.0 - 1e-12):
        raise ValueError("the bound needs xi >= sqrt(2 d)")
    if n < 10**4:
        raise ValueError("need at least 1e4 draws")
    rng = chain_rng(seed)
    exceed = 0
    remaining = n
    chunk_rows = max(1, 2_000_000 // d)
    while remaining > 0:
        rows = min(chunk_rows, remaining)
        z = rng.standard_normal((rows, d))
        exceed += int(np.count_nonzero(np.sum(z * z, axis=1) > xi * xi))
        remaining -= rows
    emp = exceed / n
    bound = math.exp(-(xi * xi - d) / 8.0)
    se = math.sqrt(max(emp * (1.0 - emp), 0.0) / n)
    return HansonWrightReport(dimension=d, xi=float(xi), empirical=float(emp), bound=float(bound),
                              std_error=float(se), holds=bool(emp <= bound + 3.0 * se), draws=n)
