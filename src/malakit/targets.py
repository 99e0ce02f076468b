"""Target distributions and the data they are built from.

A target is a potential ``U`` with its gradient; the samplers see nothing
else.  ``TargetModel.value_and_grad`` returns both at once: the built-in
targets fuse it so the shared work (``x @ a`` and the one transcendental per
datum: ``exp(-|t|)`` for the logistic loss, ``expit`` for the sigmoid losses)
is done once, and its results equal the separate calls bit-for-bit.
Regression-style targets additionally carry the matrix of unit "bad
directions" (the data vectors) and closed-form third/fourth directional
derivatives for the regularity estimators; a Gaussian, its precisions.
All built-in callables broadcast over leading axes, so an ``(n, d)``
array of positions evaluates ``n`` potentials in one call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expit

from .rng import chain_rng

__all__ = [
    "Dataset",
    "TargetModel",
    "ConstraintSet",
    "make_gaussian",
    "make_logistic_regression",
    "make_sigmoid_regression",
    "make_smoothed_zero_one",
    "recommended_schedule",
    "sample_sphere_dataset",
    "annulus",
    "precondition",
    "save_dataset",
    "load_dataset",
]

_UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Unit-norm feature columns with binary responses.

    ``features`` is ``d x r`` (column ``i`` is the data vector of datum
    ``i``).  Responses are ``{0, 1}`` for the regression targets or
    ``{-1, +1}`` for the classifier model; factories normalise between the
    two conventions.  ``seed`` records generator provenance when the data
    are synthetic.
    """

    features: np.ndarray
    responses: np.ndarray
    true_param: np.ndarray | None = None
    noise_floor: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        responses = np.asarray(self.responses, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be a d x r matrix")
        d, r = features.shape
        if responses.shape != (r,):
            raise ValueError(f"responses must have length r={r}, got {responses.shape}")
        if r > 0:
            norms = np.linalg.norm(features, axis=0)
            if np.any(np.abs(norms - 1.0) > _UNIT_NORM_TOL):
                worst = float(np.max(np.abs(norms - 1.0)))
                raise ValueError(f"feature columns must be unit norm (worst deviation {worst:.3e})")
            values = set(np.unique(responses).tolist())
            if not (values <= {0, 1} or values <= {-1, 1}):
                raise ValueError(f"responses must lie in {{0,1}} or {{-1,+1}}, got {sorted(values)}")
        if not (0.0 < self.noise_floor <= 1.0):
            raise ValueError("noise_floor must lie in (0, 1]")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "responses", responses)
        if self.true_param is not None:
            object.__setattr__(self, "true_param", np.asarray(self.true_param, dtype=float))

    @property
    def dimension(self) -> int:
        return self.features.shape[0]

    @property
    def count(self) -> int:
        return self.features.shape[1]

    def sign_responses(self) -> np.ndarray:
        """Responses mapped to {-1, +1} (regression label 0 maps to -1)."""
        return np.where(self.responses > 0, 1, -1).astype(np.int64)


@dataclass(frozen=True)
class TargetModel:
    """A potential with gradient and optional higher-order structure.

    ``potential``, ``gradient`` and ``fused`` must broadcast over leading
    axes: the engines, grids and diagnostics pass an ``(n, d)`` batch and
    read ``n`` potentials and an ``(n, d)`` gradient.  ``fused`` is
    an optional ``x -> (potential(x), gradient(x))`` that must agree with
    the separate callables bit-for-bit; read it through
    :attr:`value_and_grad`, which falls back to the separate calls.
    ``quadratic_precision`` marks a diagonal Gaussian: its precisions fix
    the exact flow and Theorem 1's constants (C3 = C4 = 0, M = the largest
    precision).
    """

    dimension: int
    potential: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    name: str = "target"
    bad_directions: np.ndarray | None = None
    quadratic_precision: np.ndarray | None = None
    third_directional: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], float] | None = None
    fourth_directional: Callable[[np.ndarray, np.ndarray], float] | None = None
    fused: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.bad_directions is not None:
            bd = np.asarray(self.bad_directions, dtype=float)
            if bd.ndim != 2:
                raise ValueError(f"bad_directions must be a (d, k) matrix, got shape {bd.shape}")
            if bd.shape[0] != self.dimension:
                raise ValueError("bad_directions must have d rows")
            if bd.shape[1] == 0:
                raise ValueError("bad_directions has no columns; pass None for a target without bad directions")
            if np.any(np.abs(np.linalg.norm(bd, axis=0) - 1.0) > 1e-9):
                raise ValueError("bad_directions columns must be unit norm")
            object.__setattr__(self, "bad_directions", bd)

    @property
    def value_and_grad(self) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """The oracle ``x -> (potential(x), gradient(x))``, broadcasting like both."""
        if self.fused is not None:
            return self.fused
        return lambda x: (self.potential(x), self.gradient(x))


@dataclass(frozen=True)
class ConstraintSet:
    """Membership oracle for a constraint region.

    ``membership`` must be pure; the built-in oracles broadcast over
    leading axes and return booleans.
    """

    membership: Callable[[np.ndarray], np.ndarray]
    annulus_radii: tuple[float, float] | None = None

    def contains(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.membership(np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# loss functions (value and first/third/fourth derivatives)

def _sigma_derivs(s: np.ndarray, order: int) -> np.ndarray:
    """Derivatives of the standard sigmoid, stable for |s| up to ~700."""
    p = expit(s)
    d1 = p * (1.0 - p)
    if order == 1:
        return d1
    if order == 2:
        return d1 * (1.0 - 2.0 * p)
    if order == 3:
        return d1 * (1.0 - 6.0 * p + 6.0 * p * p)
    if order == 4:
        return d1 * (1.0 - 2.0 * p) * (1.0 - 12.0 * p + 12.0 * p * p)
    raise ValueError(order)


class _Loss(NamedTuple):
    value: Callable
    d1: Callable
    value_d1: Callable  # t -> (value(t), d1(t)), bit-identical to the pair
    d3: Callable
    d4: Callable


def _logistic_loss() -> _Loss:
    # phi(s) = log(1 + e^{-s}); the negative log-likelihood of a correct
    # label at margin s.  phi'' = sigma', so the k-th derivative of phi is
    # the (k-1)-th derivative of the sigmoid.  All derivatives bounded by 1.
    # Value and slope come from the one transcendental e = exp(-|s|), in the
    # stable forms of Maechler (Rmpfr vignette, 2012):
    #   phi(s) = log1p(e) + max(-s, 0),
    #   phi'(s) = -sigma(-s) = -e/(1+e) for s >= 0, -1/(1+e) otherwise.
    # The separate and fused calls share these helpers, so they agree bit
    # for bit; a NaN margin stays NaN in both.
    def value_of(t, e):
        return np.log1p(e) + np.maximum(-t, 0.0)

    def d1_of(t, e):
        return -np.where(t >= 0.0, e, 1.0) / (1.0 + e)

    def value_d1(t):
        e = np.exp(-np.abs(t))
        return value_of(t, e), d1_of(t, e)

    return _Loss(lambda t: value_of(t, np.exp(-np.abs(t))), lambda t: d1_of(t, np.exp(-np.abs(t))),
                 value_d1, lambda t: _sigma_derivs(t, 2), lambda t: _sigma_derivs(t, 3))


def _sigmoid_loss() -> _Loss:
    # phi(s) = sigmoid(-s): bounded, nonconvex, robust-to-outliers loss.
    def value_d1(t):
        p = expit(-t)
        return p, -(p * (1.0 - p))

    return _Loss(lambda t: expit(-t), lambda t: -_sigma_derivs(-t, 1), value_d1,
                 lambda t: -_sigma_derivs(-t, 3), lambda t: _sigma_derivs(-t, 4))


def _plain_sigmoid() -> _Loss:
    # sigmoid itself; the zero-one surrogate folds the -y sign into its columns.
    def value_d1(t):
        p = expit(t)
        return p, p * (1.0 - p)

    return _Loss(expit, lambda t: _sigma_derivs(t, 1), value_d1,
                 lambda t: _sigma_derivs(t, 3), lambda t: _sigma_derivs(t, 4))


def _linear_composite(
    d: int,
    prior_precision: float,
    columns: np.ndarray,
    loss,
    weight: float,
    name: str,
    bad_directions: np.ndarray | None,
) -> TargetModel:
    """Target of the form (p/2)|x|^2 + weight * sum_i phi(a_i^T x)."""
    value, d1, value_d1, d3, d4 = loss
    a = np.asarray(columns, dtype=float)  # d x r, signs/scales folded in

    def potential(x):
        x = np.asarray(x, dtype=float)
        quad = 0.5 * prior_precision * (x * x).sum(axis=-1)
        t = x @ a
        return quad + weight * value(t).sum(axis=-1)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        grad = prior_precision * x
        t = x @ a
        return grad + weight * (d1(t) @ a.T)

    def value_and_grad(x):
        x = np.asarray(x, dtype=float)
        quad = 0.5 * prior_precision * (x * x).sum(axis=-1)
        grad = prior_precision * x
        val, der = value_d1(x @ a)
        return quad + weight * val.sum(axis=-1), grad + weight * (der @ a.T)

    def third_directional(x, u, v, w):
        t = np.asarray(x, dtype=float) @ a
        return float(weight * np.sum(d3(t) * (u @ a) * (v @ a) * (w @ a)))

    def fourth_directional(x, u):
        t = np.asarray(x, dtype=float) @ a
        return float(weight * np.sum(d4(t) * (u @ a) ** 4))

    return TargetModel(
        dimension=d,
        potential=potential,
        gradient=gradient,
        fused=value_and_grad,
        name=name,
        bad_directions=bad_directions,
        third_directional=third_directional,
        fourth_directional=fourth_directional,
    )


# ---------------------------------------------------------------------------
# factories

def make_gaussian(d: int, precision_diag) -> TargetModel:
    """Diagonal Gaussian: U(x) = 1/2 sum_i lambda_i x_i^2.

    The canonical zero-third/fourth-derivative test target.  Carries its
    precisions as ``quadratic_precision``, which fix the exact Hamiltonian
    flow (independent harmonic oscillators) and the Theorem-1 constants:
    C3 = C4 = 0 and M = max lambda_i.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    lam = np.asarray(precision_diag, dtype=float)
    if lam.ndim > 1 or lam.size not in (1, d):
        raise ValueError(f"precision has {lam.size} entries; d = {d} needs 1 or {d}")
    lam = np.broadcast_to(lam, (d,)).copy()
    if np.any(lam <= 0.0) or not np.all(np.isfinite(lam)):
        raise ValueError("precision entries must be positive and finite")

    def potential(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (lam * x * x).sum(axis=-1)

    def gradient(x):
        return lam * np.asarray(x, dtype=float)

    def value_and_grad(x):
        # lam * x * x evaluates as (lam * x) * x, so this equals potential(x).
        x = np.asarray(x, dtype=float)
        grad = lam * x
        return 0.5 * (grad * x).sum(axis=-1), grad

    return TargetModel(
        dimension=d,
        potential=potential,
        gradient=gradient,
        fused=value_and_grad,
        name=f"gaussian-d{d}",
        quadratic_precision=lam,
    )


def make_logistic_regression(data: Dataset, prior_precision: float) -> TargetModel:
    """Negative log-posterior of logistic regression with a Gaussian prior.

    U(theta) = (p/2)|theta|^2 + sum_i [y_i phi(theta.x_i) + (1-y_i) phi(-theta.x_i)]
    with phi(s) = log(1 + e^{-s}).  Convex; stable for margins up to ~700.
    """
    return _regression_target(data, prior_precision, _logistic_loss(), "logistic")


def make_sigmoid_regression(data: Dataset, prior_precision: float) -> TargetModel:
    """Like :func:`make_logistic_regression` but with the bounded sigmoid loss.

    phi(s) = sigmoid(-s); each datum contributes a loss in (0, 1), so the
    target is nonconvex but has all derivatives bounded by 1.
    """
    return _regression_target(data, prior_precision, _sigmoid_loss(), "sigmoid")


def _regression_target(data, prior_precision, loss, label):
    if prior_precision < 0:
        raise ValueError("prior_precision must be nonnegative")
    d, r = data.dimension, data.count
    # Fold the label into the column sign: y=1 contributes phi(+t), y=0 phi(-t).
    columns = data.features * data.sign_responses()
    return _linear_composite(
        d,
        float(prior_precision),
        columns,
        loss,
        weight=1.0,
        name=f"{label}-d{d}-r{r}",
        bad_directions=data.features if r > 0 else None,
    )


def make_smoothed_zero_one(data: Dataset, inverse_temperature: float, lam: float) -> TargetModel:
    """Low-temperature smoothed empirical zero-one loss.

    U(x) = T^{-1} * (1/r) sum_i sigmoid(-y_i x_i . x / d^{1/4}); the scaling
    constant ``lam`` cancels inside the composition and only sizes the
    companion annulus constraint.  Steepness therefore comes from evaluating
    on that annulus, whose radius grows as the temperature drops.
    """
    if data.count == 0:
        raise ValueError("smoothed zero-one loss needs at least one datum")
    if inverse_temperature <= 0:
        raise ValueError("inverse_temperature must be positive")
    if lam <= 0:
        raise ValueError("lam must be positive")
    d, r = data.dimension, data.count
    y = data.sign_responses()
    columns = -(data.features * y) / d**0.25
    return _linear_composite(
        d,
        0.0,
        columns,
        _plain_sigmoid(),
        weight=float(inverse_temperature) / r,
        name=f"zero-one-d{d}-r{r}",
        bad_directions=data.features,
    )


def recommended_schedule(q0: float, epsilon: float, d: int, c1: float = 1.0) -> tuple[float, float]:
    """Inverse temperature and annulus scale for the zero-one pipeline.

    Returns ``(inverse_temperature, lam)`` with
    ``T^{-1} = c1 d^{3/2} / (q0 eps^2)`` and ``lam = 100 sqrt(d) / (T |log T|)``.
    Requires the resulting temperature to be below 1 so the log is nonzero.
    """
    if not (0.0 < q0 <= 1.0):
        raise ValueError("q0 must lie in (0, 1]")
    if not (0.0 < epsilon <= 0.1):
        raise ValueError("epsilon must lie in (0, 0.1]")
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    if d < 1:
        raise ValueError("d must be a positive integer")
    inv_temp = c1 * d**1.5 / (q0 * epsilon**2)
    if inv_temp <= 1.0:
        raise ValueError(f"schedule needs inverse temperature > 1, got {inv_temp:.4g}; increase c1")
    lam = 100.0 * math.sqrt(d) * inv_temp / math.log(inv_temp)
    return inv_temp, lam


def sample_sphere_dataset(d: int, r: int, theta_star, q0: float, seed: int) -> Dataset:
    """Synthetic classifier data: sphere-uniform features, noisy sign labels.

    Label ``i`` equals ``sign(x_i . theta*)`` with probability
    ``(1 + q(x_i)) / 2`` where ``q(x) = min(1, q0 |x . theta*|)`` — the
    minimal noise function compatible with the model's lower bound.
    Deterministic given ``seed``.
    """
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    theta = np.asarray(theta_star, dtype=float)
    if theta.shape != (d,):
        raise ValueError("theta_star must have length d")
    norm = np.linalg.norm(theta)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError("theta_star must be a unit vector")
    theta = theta / norm
    if not (0.0 < q0 <= 1.0):
        raise ValueError("q0 must lie in (0, 1]")
    rng = chain_rng(seed)
    features = np.empty((d, r))
    for i in range(r):
        while True:
            g = rng.standard_normal(d)
            n = np.linalg.norm(g)
            if n >= 1e-12:
                break
        features[:, i] = g / n
    ips = features.T @ theta
    base = np.where(ips >= 0.0, 1, -1)
    q = np.minimum(1.0, q0 * np.abs(ips))
    keep = rng.random(r) < (1.0 + q) / 2.0
    responses = np.where(keep, base, -base).astype(np.int64)
    return Dataset(features=features, responses=responses, true_param=theta, noise_floor=q0, seed=seed)


def annulus(inner: float, outer: float) -> ConstraintSet:
    """Closed centered annulus ``inner <= |x|_2 <= outer``."""
    if not (0.0 < inner < outer):
        raise ValueError("need 0 < inner < outer")

    def membership(x):
        norms = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        return (norms >= inner) & (norms <= outer)

    return ConstraintSet(membership=membership, annulus_radii=(float(inner), float(outer)))


def precondition(target: TargetModel, scale: float) -> TargetModel:
    """Rescale the argument: new potential x -> U(scale * x).

    The gradient picks up one factor of ``scale`` by the chain rule, the
    k-th directional derivatives ``scale**k``, and a Gaussian's precisions
    ``scale**2``.  Bad directions are unchanged.
    """
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be finite and positive, got {scale}")
    s = float(scale)
    base_pot, base_grad, base_fused = target.potential, target.gradient, target.value_and_grad

    def potential(x):
        return base_pot(s * np.asarray(x, dtype=float))

    def gradient(x):
        return s * base_grad(s * np.asarray(x, dtype=float))

    def value_and_grad(x):
        pot, grad = base_fused(s * np.asarray(x, dtype=float))
        return pot, s * grad

    third = None
    if target.third_directional is not None:
        base3 = target.third_directional
        third = lambda x, u, v, w: s**3 * base3(s * np.asarray(x, dtype=float), u, v, w)
    fourth = None
    if target.fourth_directional is not None:
        base4 = target.fourth_directional
        fourth = lambda x, u: s**4 * base4(s * np.asarray(x, dtype=float), u)

    return TargetModel(
        dimension=target.dimension,
        potential=potential,
        gradient=gradient,
        fused=value_and_grad,
        name=f"{target.name}*{s:g}",
        bad_directions=target.bad_directions,
        quadratic_precision=None if target.quadratic_precision is None else target.quadratic_precision * s * s,
        third_directional=third,
        fourth_directional=fourth,
    )


# ---------------------------------------------------------------------------
# dataset serialization

def save_dataset(data: Dataset, csv_path) -> tuple[Path, Path]:
    """Write the CSV plus JSON sidecar; returns both paths."""
    csv_path = Path(csv_path)
    d, r = data.dimension, data.count
    header = ",".join([f"feature_{j}" for j in range(d)] + ["response"])
    lines = [header]
    for i in range(r):
        fields = [repr(float(v)) for v in data.features[:, i]] + [str(int(data.responses[i]))]
        lines.append(",".join(fields))
    csv_path.write_text("\n".join(lines) + "\n")
    sidecar = csv_path.with_suffix(".json")
    meta = {
        "d": d,
        "r": r,
        "q0": data.noise_floor,
        "seed": data.seed,
        "theta_star": None if data.true_param is None else [float(v) for v in data.true_param],
    }
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return csv_path, sidecar


def load_dataset(csv_path) -> Dataset:
    """Read a dataset written by :func:`save_dataset`.  A file without the
    header, a row of the wrong width and a field that is not a number raise
    ValueError naming the file and the line; a header alone is r = 0."""
    csv_path = Path(csv_path)
    lines = [(n, ln) for n, ln in enumerate(csv_path.read_text().splitlines(), 1) if ln.strip()] or [(1, "")]
    header = lines[0][1].split(",")
    if header[-1] != "response" or not header[0].startswith("feature_"):
        raise ValueError(f"{csv_path} line {lines[0][0]}: no dataset header (feature_0,...,response)")
    d = len(header) - 1
    r = len(lines) - 1
    features = np.empty((d, r))
    responses = np.empty(r, dtype=np.int64)
    for i, (n, line) in enumerate(lines[1:]):
        parts = line.split(",")
        try:
            if len(parts) != d + 1:
                raise ValueError(f"expected {d + 1} fields, as the header has, got {len(parts)}")
            features[:, i] = [float(v) for v in parts[:d]]
            responses[i] = int(parts[d])
        except ValueError as exc:
            raise ValueError(f"{csv_path} line {n}: {exc}") from None
    sidecar = csv_path.with_suffix(".json")
    true_param, q0, seed = None, 1.0, None
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
        q0 = float(meta.get("q0", 1.0))
        seed = meta.get("seed")
        if meta.get("theta_star") is not None:
            true_param = np.asarray(meta["theta_star"], dtype=float)
    return Dataset(features=features, responses=responses, true_param=true_param,
                   noise_floor=q0, seed=seed)
