"""Chain measurement at desk scale.

Discretized transition kernels, Cheeger constants and conductance on 1D
grids, replica-based mixing-time estimates, energy-error scaling fits,
acceptance statistics, and the Gaussian-norm tail check.  Conductance is
exact up to 16 states, where every cut is searched; above that it is an
upper bound over the prefix cuts (exact for monotone 1D kernels).  It is
never negative.

Every large array is worked through in row blocks of about
``_BLOCK_ENTRIES`` entries (:func:`_row_blocks`): building a kernel, its
conductance and its detailed-balance violation need the kernel itself plus
O(n * block) memory, with no other n x n array, and the Hanson-Wright check
draws its Gaussians a block at a time.  The blocks change no bit: each
entry is computed by the same operations, every cumulative sum adds in the
same order as a whole-matrix evaluation does, and the draws come from one
stream in order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chains import ChainTrace, EnsembleResult, run_ensemble
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
    "detailed_balance_violation",
    "mixing_time_estimate",
    "hitting_time",
    "energy_error_scaling",
    "acceptance_stats",
    "hanson_wright_check",
]

_HALF_TOL = 1e-12
_ROW_SUM_TOL = 1e-9
_EXACT_STATES = 16  # conductance enumerates all 2**n cuts up to here: a 65,534 x 16 mask matrix at 16
_BLOCK_ENTRIES = 1 << 16  # entries per row block (~0.5 MB), so memory is not O(n^2) beyond the kernel


def _row_blocks(n: int, width: int) -> list[slice]:
    """Slices of ``max(1, _BLOCK_ENTRIES // width)`` rows covering ``range(n)``; the last may be shorter."""
    rows = max(1, _BLOCK_ENTRIES // width)
    return [slice(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


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

    The entries are written into the kernel a row block at a time, so the
    memory is one n x n kernel plus O(n * block).  Raises ``ValueError``,
    naming eta, when an off-diagonal entry is not finite (at an eta so small
    or so large that the proposal density under- or overflows).
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
        grad = np.asarray(grad, dtype=float)[:, 0]
    else:
        pot = target.potential(mids[:, None])
    log_pi = -np.asarray(pot, dtype=float)
    scale, log_norm = 2.0 * eta * eta, math.log(eta * math.sqrt(2.0 * math.pi))

    def log_q(start, end):
        """log q(start -> end) for a column of starts and a row of ends."""
        diff = end - start
        diff *= diff
        np.negative(diff, out=diff)
        diff /= scale
        diff -= log_norm
        return diff

    n = mids.size
    kernel = np.empty((n, n))
    # an eta at either end of the float range makes 0/0, x/0 or inf - inf here;
    # the non-finite kernel that results is refused below, without a warning
    with np.errstate(all="ignore"):
        mean = mids - 0.5 * eta * eta * grad if kernel_kind == "mala" else mids
        for rows in _row_blocks(n, n):
            out = kernel[rows]
            forward = log_q(mean[rows, None], mids[None, :])  # log q[i, j], i in the block
            if kernel_kind == "mala":
                log_ratio = log_q(mean[None, :], mids[rows, None])  # log q[j, i]
                log_ratio += log_pi[None, :]
                np.add(log_pi[rows, None], forward, out=out)  # holds the sum until exp(forward) overwrites it
                log_ratio -= out
            else:
                log_ratio = log_pi[None, :] - log_pi[rows, None]
            np.minimum(0.0, log_ratio, out=log_ratio)
            np.exp(log_ratio, out=log_ratio)  # the acceptance probability
            np.exp(forward, out=out)
            out *= log_ratio
            out *= width
    np.fill_diagonal(kernel, 0.0)
    off_mass = kernel.sum(axis=1)
    bad_rows = np.count_nonzero(~np.isfinite(off_mass))  # a NaN or inf entry makes its row sum non-finite
    if bad_rows:
        raise ValueError(f"the kernel at eta={eta} has non-finite entries in {bad_rows} rows: the proposal "
                         "density under- or overflows at this eta, or the potential is not finite on the grid")
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
    the value is never negative.  The prefix-cut flows are running column
    sums taken over row blocks, one pass down the rows and one up, so the
    memory beside the kernel is O(n * block).

    Raises ``ValueError``, listing every problem, for a kernel with
    non-finite or negative entries or rows that do not sum to 1 (within
    1e-9).
    """
    kernel = np.asarray(kernel, dtype=float)
    p = pi.mass.ravel()
    n = p.size
    if kernel.shape != (n, n):
        raise ValueError("kernel and grid sizes differ")
    blocks = _row_blocks(n, n)
    non_finite = negative = 0
    for rows in blocks:
        non_finite += kernel[rows].size - np.count_nonzero(np.isfinite(kernel[rows]))
        negative += np.count_nonzero(kernel[rows] < 0.0)
    problems = [f"{bad} {what} kernel entries"
                for what, bad in (("non-finite", non_finite), ("negative", negative)) if bad]
    off = np.flatnonzero(np.abs(kernel.sum(axis=1) - 1.0) > _ROW_SUM_TOL)
    if off.size:
        problems.append(f"{off.size} rows do not sum to 1 within {_ROW_SUM_TOL:g} "
                        f"(first: row {off[0]})")
    if problems:
        raise ValueError("bad conductance input: " + "; ".join(problems))

    if n <= _EXACT_STATES:
        flux = p[:, None] * kernel
        # row k of ``inside`` is the subset with the bits of k + 1
        inside = ((np.arange(1, 2**n - 1)[:, None] >> np.arange(n)) & 1).astype(bool)
        flow = ((inside @ flux) * ~inside).sum(axis=1)
        return _min_cut_ratio(flow, inside @ p)

    # prefix cuts S = {0..k-1} and their complements, with the flux F = p_i K_ij:
    # top[m, k] = sum_{i <= m} sum_{j >= k} F_ij, added down the rows, and
    # bottom[m, k] = sum_{i >= m} sum_{j <= k} F_ij, added up the rows; each
    # block's first row takes the running sum of the blocks before it
    out_flow, in_flow = np.empty(n - 1), np.empty(n - 1)
    for rows in blocks:
        top = p[rows, None] * kernel[rows]
        np.cumsum(top[:, ::-1], axis=1, out=top[:, ::-1])
        if rows.start > 0:
            top[0] += running
        np.cumsum(top, axis=0, out=top)
        running = top[-1].copy()
        part = np.diagonal(top, rows.start + 1)  # top[k-1, k]: flow from i < k to j >= k
        out_flow[rows.start:rows.start + part.size] = part
    for rows in reversed(blocks):
        bottom = p[rows, None] * kernel[rows]
        np.cumsum(bottom, axis=1, out=bottom)
        if rows.stop < n:
            bottom[-1] += running
        np.cumsum(bottom[::-1], axis=0, out=bottom[::-1])
        running = bottom[0].copy()
        part = np.diagonal(bottom, rows.start - 1)  # bottom[k, k-1]: flow from i >= k to j < k
        in_flow[rows.stop - 1 - part.size:rows.stop - 1] = part
    mass = np.concatenate([np.cumsum(p)[:-1], np.cumsum(p[::-1])[::-1][1:]])
    return _min_cut_ratio(np.concatenate([out_flow, in_flow]), mass)


def detailed_balance_violation(kernel: np.ndarray, mass: np.ndarray) -> float:
    """max |F - F^T| / max F for the flux F_ij = mass_i K_ij: 0 for a kernel
    reversible with respect to ``mass``.  Reduced over row blocks, so no
    n x n array is made beside the kernel; the value has the bits of the
    whole-matrix form."""
    kernel, mass = np.asarray(kernel, dtype=float), np.asarray(mass, dtype=float)
    peaks, gaps = [], []
    for rows in _row_blocks(mass.size, mass.size):
        flux = mass[rows, None] * kernel[rows]
        peaks.append(flux.max())
        flux -= kernel[:, rows].T * mass  # rows of F^T: F_ji = mass_j K_ji
        gaps.append(np.abs(flux, out=flux).max())
    return float(np.max(gaps) / np.max(peaks))


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
) -> tuple[int | None, EnsembleResult]:
    """First iteration at which the replica ensemble is TV-close to truth,
    and the ensemble's :class:`~malakit.chains.EnsembleResult`.

    Runs ``replicas`` chains from ``init`` and, at multiples of
    ``check_every``, bins their positions on the grid truth's own geometry
    (:meth:`~GridDistribution.tv_to_samples`); the threshold applies to that
    TV minus the truth's :meth:`~GridDistribution.binning_floor` for as many
    samples (raw TV cannot reach zero under finite sampling).  A check with
    every replica off the grid counts as unmixed.  The estimate is ``None``
    when the budget runs out; the result's acceptance and counts cover the
    steps the ensemble ran, up to the estimate or the whole budget.  Raises
    ValueError on bad arguments or a non-finite start from ``init``, and
    :class:`NumericFailure` from ``run_ensemble``.
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

    result = run_ensemble(target, sampler, eta, max_iterations, positions, subseed(seed, 2),
                          callback=check, callback_every=check_every)
    return (found[0] if found else None), result


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
        with np.errstate(over="ignore", invalid="ignore"):  # an eta whose energy error is not finite is dropped
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
    if not xi >= math.sqrt(2.0 * d) * (1.0 - 1e-12):  # False for NaN, so NaN is refused
        raise ValueError(f"the bound needs xi >= sqrt(2 d), got {xi}")
    if xi == math.inf:  # the bound and the tail would both read 0
        raise ValueError(f"the bound needs a finite xi, got {xi}")
    if n < 10**4:
        raise ValueError("need at least 1e4 draws")
    rng = chain_rng(seed)
    exceed = 0
    for rows in _row_blocks(n, d):  # one stream, drawn in order: the blocks move no draw
        z = rng.standard_normal((rows.stop - rows.start, d))
        exceed += int(np.count_nonzero(np.sum(z * z, axis=1) > xi * xi))
    emp = exceed / n
    bound = math.exp(-(xi * xi - d) / 8.0)
    se = math.sqrt(max(emp * (1.0 - emp), 0.0) / n)
    return HansonWrightReport(dimension=d, xi=float(xi), empirical=float(emp), bound=float(bound),
                              std_error=float(se), holds=bool(emp <= bound + 3.0 * se), draws=n)
