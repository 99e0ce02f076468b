"""Empirical regularity analysis: incoherence, C3/C4, gradient bound, good set.

The probe-based estimators certify *lower* bounds only — a finite probe
family can never certify an upper bound over all of space — and are
reported as such.  Targets that carry closed-form directional derivatives
(the regression family) are probed exactly; everything else goes through
central differences with relative step sizes.

Probes are keyed by ``(seed, point, direction)`` substreams, so enlarging
either probe count extends the probe family without disturbing existing
probes: the running-maximum estimates are monotone in both counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .targets import ConstraintSet, Dataset, TargetModel
from .integrator import leapfrog
from .rng import chain_rng

__all__ = [
    "EstimationFailed",
    "GoodSetParams",
    "GradientBoundEstimate",
    "ExitProbabilityEstimate",
    "RegularityReport",
    "incoherence",
    "theorem3_bounds",
    "estimate_c3",
    "estimate_c4",
    "estimate_gradient_bound",
    "good_set_check",
    "constraint_exit_estimate",
    "build_regularity_report",
]

_GRAM_BLOCK_ENTRIES = 1 << 17  # Gram entries per row block of incoherence (~1 MB), so memory is not O(r^2)


class EstimationFailed(RuntimeError):
    """Every probe was degenerate; no estimate available."""


def incoherence(data: Dataset) -> float:
    """max_i sum_j |x_i . x_j| over the data columns (diagonal included).

    Exact, in O(r^2 d) time and O(r * block) memory: a running maximum over
    near-equal row blocks of the Gram matrix, each of at least two rows
    (small r is one block).  Unit columns add exactly 1 to each row sum
    through the diagonal, so orthonormal data have incoherence 1.
    """
    f, r = data.features, data.count
    if r < 1:
        raise ValueError("incoherence needs at least one datum")
    blocks = max(1, r // max(2, _GRAM_BLOCK_ENTRIES // r))
    cuts = [k * r // blocks for k in range(blocks + 1)]
    return max(float(np.max(np.abs(f[:, lo:hi].T @ f).sum(axis=1))) for lo, hi in zip(cuts, cuts[1:]))


def theorem3_bounds(r: int, phi: float) -> tuple[float, float]:
    """Closed-form regularity constants for empirical-loss targets.

    Returns ``(sqrt(r * phi), r)``: the third-order constant scales with
    the square root of count times incoherence, the fourth-order constant
    with the count alone.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if not 1.0 <= phi < math.inf:
        raise ValueError(f"incoherence must be finite and at least 1 for unit columns, got {phi}")
    return math.sqrt(r * phi), float(r)


def _probe_max(target: TargetModel, probe_points: int, probe_dirs: int, seed: int, step: float,
               directions, value) -> float | None:
    """Running maximum of ``value / denominator`` over the probe family.

    Point ``i`` is drawn from ``chain_rng(seed, i, 0)`` and its directions
    from ``chain_rng(seed, i, j)``, ``j >= 1``:
    ``directions(rng, bad_directions)`` returns ``(dirs, denominator)``, and
    ``value(x, h, *dirs)`` the derivative reading at ``x`` with difference
    step ``h = step * (1 + |x|)``.  Probes with a denominator below 1e-12
    are skipped; None when every probe was.
    """
    if probe_points < 1 or probe_dirs < 1:
        raise ValueError("probe counts must be >= 1")
    bd = target.bad_directions
    if bd is None:
        raise ValueError(f"target {target.name!r} carries no bad-direction matrix")
    best = None
    for i in range(probe_points):
        x = chain_rng(seed, i, 0).standard_normal(target.dimension)
        h = step * (1.0 + float(np.linalg.norm(x)))
        for j in range(1, probe_dirs + 1):
            dirs, denom = directions(chain_rng(seed, i, j), bd)
            if denom < 1e-12:
                continue
            ratio = value(x, h, *dirs) / denom
            best = ratio if best is None else max(best, ratio)
    return best


def estimate_c3(target: TargetModel, probe_points: int, probe_dirs: int, seed: int) -> float:
    """Probe-based lower bound on the third-order regularity constant.

    Maximizes |D^3 U(x)[u, v, w]| / (|X^T u|_inf |X^T v|_inf |w|_2) over
    random probes; closed-form derivatives are used when the target has
    them, second central differences of the gradient otherwise.
    """
    def directions(rng, bd):
        u, v, w = (rng.standard_normal(target.dimension) for _ in range(3))
        return (u, v, w), float(np.max(np.abs(bd.T @ u)) * np.max(np.abs(bd.T @ v)) * np.linalg.norm(w))

    def value(x, h, u, v, w):
        if target.third_directional is not None:
            return abs(float(target.third_directional(x, u, v, w)))
        g = target.gradient
        mixed = (np.asarray(g(x + h * u + h * v)) - np.asarray(g(x + h * u - h * v))
                 - np.asarray(g(x - h * u + h * v)) + np.asarray(g(x - h * u - h * v)))
        return abs(float(mixed @ w) / (4.0 * h * h))

    best = _probe_max(target, probe_points, probe_dirs, seed, 1e-3, directions, value)
    if best is None:
        raise EstimationFailed("all third-order probes were degenerate")
    return best


def estimate_c4(target: TargetModel, probe_points: int, probe_dirs: int, seed: int) -> float:
    """Probe-based lower bound on the fourth-order regularity constant.

    Maximizes |D^4 U(x)[u,u,u,u]| / |X^T u|_inf^4; the fallback is the
    five-point fourth difference of the potential along the probe
    direction.
    """
    def directions(rng, bd):
        u = rng.standard_normal(target.dimension)
        return (u,), float(np.max(np.abs(bd.T @ u))) ** 4

    def value(x, h, u):
        if target.fourth_directional is not None:
            return abs(float(target.fourth_directional(x, u)))
        f = lambda p: float(target.potential(p))
        stencil = (f(x + 2 * h * u) - 4.0 * f(x + h * u) + 6.0 * f(x)
                   - 4.0 * f(x - h * u) + f(x - 2 * h * u))
        return abs(stencil / h**4)

    best = _probe_max(target, probe_points, probe_dirs, seed, 3e-3, directions, value)
    if best is None:
        raise EstimationFailed("all fourth-order probes were degenerate")
    return best


@dataclass(frozen=True)
class GradientBoundEstimate:
    """Max gradient norm over a sample region, plus the max pairwise
    difference quotient (the Lipschitz-smoothness reading of the same
    constant — the two roles are deliberately reported side by side)."""

    gradient_bound: float
    smoothness: float


def gradient_cloud(target: TargetModel, probe_points: int, seed: int) -> np.ndarray:
    """The standard Gaussian cloud around the origin that the gradient-bound
    estimate reads: ``max(probe_points, 16)`` points from
    ``chain_rng(seed, 10**6)``, a node apart from every probe and cell."""
    return chain_rng(seed, 10**6).standard_normal((max(probe_points, 16), target.dimension))


@np.errstate(over="ignore", invalid="ignore")  # an overflowed norm reads inf, which the callers refuse
def estimate_gradient_bound(target: TargetModel, region_samples) -> GradientBoundEstimate:
    points = [np.asarray(p, dtype=float) for p in region_samples]
    if not points:
        raise ValueError("need at least one sample point")
    grads = [np.asarray(target.gradient(p), dtype=float) for p in points]
    bound = max(float(np.linalg.norm(g)) for g in grads)
    smooth = 0.0
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            gap = float(np.linalg.norm(points[a] - points[b]))
            if gap > 1e-12:
                smooth = max(smooth, float(np.linalg.norm(grads[a] - grads[b])) / gap)
    return GradientBoundEstimate(gradient_bound=bound, smoothness=smooth)


@dataclass(frozen=True)
class GoodSetParams:
    """Thresholds for the bounded-trajectory region in phase space."""

    alpha: float
    radius: float
    grad_bound: float
    horizon: float
    substeps: int = 8

    def __post_init__(self):
        floors = {"alpha": math.sqrt(2.0), "radius": 0.0, "grad_bound": 0.0, "horizon": 0.0}
        problems = [f"{name} must be finite and above {floor:g}, got {getattr(self, name)}"
                    for name, floor in floors.items() if not floor < getattr(self, name) < math.inf]
        if self.substeps < 1:
            problems.append(f"substeps must be >= 1, got {self.substeps}")
        if problems:
            raise ValueError("bad good-set parameters: " + "; ".join(problems))


@np.errstate(over="ignore", invalid="ignore")  # a row that overflows is outside the set
def good_set_check(target: TargetModel, positions, velocities, params: GoodSetParams) -> np.ndarray:
    """Does the Hamiltonian trajectory from each row of ``(positions,
    velocities)``, an ``(n, d)`` pair, stay in the good set?  One bool per row.

    A row is in the set when its initial speed is at most ``radius`` and, at
    the start and after each of ``params.substeps`` :func:`leapfrog` steps of
    ``horizon / substeps`` on the whole batch, its bad-direction velocity
    components are at most ``alpha`` and its distance to the origin at
    most ``(3/sqrt(2)) radius / sqrt(grad_bound)``.  Targets without a
    bad-direction matrix are checked against the coordinate directions.
    """
    d = target.dimension
    x, v = np.array(positions, dtype=float), np.array(velocities, dtype=float)
    if x.ndim != 2 or x.shape[1] != d or v.shape != x.shape:
        raise ValueError(f"positions and velocities must both be (n, {d}), got {x.shape} and {v.shape}")
    bd = target.bad_directions if target.bad_directions is not None else np.eye(d)
    pos_bound = (3.0 / math.sqrt(2.0)) * params.radius / math.sqrt(params.grad_bound)

    def ok(q, p):
        return (np.max(np.abs(p @ bd), axis=1) <= params.alpha) & (np.linalg.norm(q, axis=1) <= pos_bound)

    good = (np.linalg.norm(v, axis=1) <= params.radius) & ok(x, v)
    pot, grad = target.value_and_grad(x)
    for _ in range(params.substeps):
        x, v, pot, grad, _ = leapfrog(target.value_and_grad, x, v, pot, grad, params.horizon / params.substeps)
        good &= ok(x, v)
    return good


@dataclass(frozen=True)
class ExitProbabilityEstimate:
    estimate: float
    std_error: float
    draws: int


def constraint_exit_estimate(target: TargetModel, constraint: ConstraintSet, eta: float,
                             z: np.ndarray, n: int, seed: int) -> ExitProbabilityEstimate:
    """Monte Carlo estimate of P(one drifted proposal from z stays inside).

    The proposal is z + eta v - (eta^2/2) grad U(z) with standard Gaussian
    v; the constraint-set regularity assumption asks this to be at least
    1/10 everywhere in the set.  A drift z - (eta^2/2) grad U(z) that is not
    finite raises ValueError.
    """
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be finite and positive, got {eta}")
    if n < 1:
        raise ValueError("n must be >= 1")
    z = np.asarray(z, dtype=float)
    if not bool(constraint.contains(z)):
        raise ValueError("z must lie inside the constraint set")
    rng = chain_rng(seed, 0)
    grad = np.asarray(target.gradient(z), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        drift = z - 0.5 * eta * eta * grad
    if not np.all(np.isfinite(drift)):
        raise ValueError(f"the proposal mean at eta={eta:g} is not finite: (eta^2/2) times the gradient overflows")
    v = rng.standard_normal((n, z.size))
    proposals = drift + eta * v
    inside = np.asarray(constraint.contains(proposals), dtype=bool)
    p = float(np.mean(inside))
    se = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return ExitProbabilityEstimate(estimate=p, std_error=se, draws=n)


@dataclass(frozen=True)
class RegularityReport:
    """Bounds vs probe estimates for one target/dataset pair.

    Estimates are lower bounds by construction; the closed-form bounds are
    the certified ceilings for empirical-loss targets.
    """

    incoherence: float
    c3_bound: float
    c4_bound: float
    c3_estimate: float
    c4_estimate: float
    gradient_bound_estimate: float
    smoothness_estimate: float
    probe_points: int
    probe_dirs: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def rows(self) -> list[tuple[str, str, str, str]]:
        """(quantity, bound, estimate, status) rows for table printers."""
        def fmt(v):
            return f"{v:.6g}"

        return [
            ("incoherence", "-", fmt(self.incoherence), "exact"),
            ("C3", fmt(self.c3_bound), fmt(self.c3_estimate),
             "ok" if self.c3_estimate <= self.c3_bound * 1.05 else "VIOLATED"),
            ("C4", fmt(self.c4_bound), fmt(self.c4_estimate),
             "ok" if self.c4_estimate <= self.c4_bound * 1.05 else "VIOLATED"),
            ("gradient bound", "-", fmt(self.gradient_bound_estimate), "lower bound"),
            ("smoothness", "-", fmt(self.smoothness_estimate), "lower bound"),
        ]


def build_regularity_report(target: TargetModel, data: Dataset, probe_points: int,
                            probe_dirs: int, seed: int) -> RegularityReport:
    """Assemble the full report for an empirical-loss target; the
    :func:`gradient_cloud` feeds the gradient-bound and smoothness estimates,
    and a ValueError refuses either when it overflows."""
    phi = incoherence(data)
    c3_bound, c4_bound = theorem3_bounds(data.count, phi)
    c3_est = estimate_c3(target, probe_points, probe_dirs, seed)
    c4_est = estimate_c4(target, probe_points, probe_dirs, seed)
    samples = gradient_cloud(target, probe_points, seed)
    grad_est = estimate_gradient_bound(target, list(samples))
    if not (math.isfinite(grad_est.gradient_bound) and math.isfinite(grad_est.smoothness)):
        raise ValueError(f"the gradient bound and smoothness estimates must be finite, got {grad_est.gradient_bound} "
                         f"and {grad_est.smoothness}: the gradient overflows at this prior precision")
    return RegularityReport(
        incoherence=phi,
        c3_bound=c3_bound,
        c4_bound=c4_bound,
        c3_estimate=c3_est,
        c4_estimate=c4_est,
        gradient_bound_estimate=grad_est.gradient_bound,
        smoothness_estimate=grad_est.smoothness,
        probe_points=probe_points,
        probe_dirs=probe_dirs,
        seed=seed,
    )
