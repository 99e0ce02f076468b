"""Phase-space state, the leapfrog kernel, and the acceptance rule.

:func:`leapfrog` is the one leapfrog step in the package: the chain engine,
:func:`leapfrog_step` (a batch of one) and the energy-error diagnostics all
call it, so the checks of the step check the step the chains run.
The Metropolis correction is driven entirely by the energy-conservation
error of a single leapfrog step: the log acceptance probability is
``min(0, -dH)``.  An independent formulation of the same rule — the
classical proposal-density ratio for the Gaussian drift proposal — is
provided so the two can be checked against each other to floating-point
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .targets import TargetModel

__all__ = [
    "PhaseState",
    "LeapfrogResult",
    "NumericFailure",
    "hamiltonian",
    "leapfrog",
    "leapfrog_step",
    "exact_quadratic_flow",
    "log_accept_energy",
    "log_accept_proposal_form",
    "kinetic_error_bound",
]


class NumericFailure(RuntimeError):
    """A gradient or potential came back non-finite."""

    def __init__(self, message: str, coordinates=()):
        super().__init__(message)
        self.coordinates = tuple(coordinates)


@dataclass(frozen=True)
class PhaseState:
    """Position/velocity pair the integrator acts on."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.position, dtype=float)
        p = np.asarray(self.velocity, dtype=float)
        if q.shape != p.shape:
            raise ValueError("position and velocity must have equal shape")
        object.__setattr__(self, "position", q)
        object.__setattr__(self, "velocity", p)


@dataclass(frozen=True)
class LeapfrogResult:
    proposal: PhaseState
    energy_error: float
    gradient_evals: int = 2


def hamiltonian(target: TargetModel, state: PhaseState) -> float:
    """Total energy U(q) + |p|^2 / 2."""
    if state.position.shape[-1] != target.dimension:
        raise ValueError(f"state dimension {state.position.shape[-1]} != target dimension {target.dimension}")
    return float(target.potential(state.position)) + 0.5 * float(np.dot(state.velocity, state.velocity))


def _sq_norms(v: np.ndarray) -> np.ndarray:
    """``v[j] @ v[j]`` for each row, summed exactly as the 1-D dot product sums."""
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def leapfrog(value_and_grad, x, v, pot, grad, eta):
    """One leapfrog step for each row of an ``(n, d)`` batch.

    ``pot`` and ``grad`` are the oracle values at ``x``; ``eta`` is a float
    or an ``(n, 1)`` column of per-row step sizes.  Makes one oracle call,
    at the proposal, and returns ``(x_hat, v_hat, pot_hat, grad_hat, err)``
    where ``err`` is the energy error whose negative is the log acceptance.
    """
    half = 0.5 * eta
    x_hat = x + eta * v - (half * eta) * grad
    pot_hat, grad_hat = value_and_grad(x_hat)
    pot_hat, grad_hat = np.asarray(pot_hat, dtype=float), np.asarray(grad_hat, dtype=float)
    v_hat = v - half * (grad + grad_hat)
    err = (pot_hat + 0.5 * _sq_norms(v_hat)) - (pot + 0.5 * _sq_norms(v))
    return x_hat, v_hat, pot_hat, grad_hat, err


def leapfrog_step(target: TargetModel, state: PhaseState, eta: float) -> LeapfrogResult:
    """One leapfrog step of size ``eta`` and its energy error: the batched
    :func:`leapfrog` on a batch of one.

    Uses exactly two gradient evaluations (at the current and proposed
    positions); the energy error is the acceptance rule's input.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    _, value_and_grad = target.batch_oracles()
    x, v = state.position[None, :], state.velocity[None, :]
    pot, grad = value_and_grad(x)
    pot, grad = np.asarray(pot, dtype=float), np.asarray(grad, dtype=float)
    _require_finite(grad, "gradient at current position")
    x_hat, v_hat, pot_hat, grad_hat, err = leapfrog(value_and_grad, x, v, pot, grad, eta)
    _require_finite(grad_hat, "gradient at proposal")
    return LeapfrogResult(proposal=PhaseState(x_hat[0], v_hat[0]), energy_error=float(err[0]))


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        bad = np.flatnonzero(~np.isfinite(values))
        raise NumericFailure(f"non-finite {what} at coordinates {bad.tolist()}", bad.tolist())


def exact_quadratic_flow(target: TargetModel, state: PhaseState, t: float) -> PhaseState:
    """Closed-form Hamiltonian flow for diagonal quadratic potentials.

    Each coordinate rotates independently at frequency sqrt(lambda_i);
    zero-precision coordinates drift linearly.  Conserves the Hamiltonian
    exactly, which is what makes it useful as an integration oracle.
    """
    if target.quadratic_precision is None:
        raise ValueError(f"target {target.name!r} has no analytic flow (not diagonal quadratic)")
    lam = target.quadratic_precision
    q, p = state.position, state.velocity
    # Free coordinates (lambda = 0) drift; treat them separately so the
    # rotation formulas never divide by a zero frequency.
    omega = np.sqrt(np.where(lam > 0, lam, 1.0))
    c, s = np.cos(omega * t), np.sin(omega * t)
    q_rot = q * c + (p / omega) * s
    p_rot = p * c - q * omega * s
    free = lam <= 0
    q_t = np.where(free, q + p * t, q_rot)
    p_t = np.where(free, p, p_rot)
    return PhaseState(q_t, p_t)


def log_accept_energy(energy_error):
    """Log acceptance probability from the energy error, elementwise:
    min(0, -dH), and -inf (certain rejection) where dH is NaN.  A float in
    gives a float out."""
    err = np.asarray(energy_error, dtype=float)
    log_accept = np.where(err > 0.0, -err, np.where(err <= 0.0, 0.0, -np.inf))
    return float(log_accept) if log_accept.ndim == 0 else log_accept


def log_accept_proposal_form(target: TargetModel, x: np.ndarray, x_hat: np.ndarray, eta: float) -> float:
    """Metropolis-Hastings log acceptance for the Gaussian drift proposal.

    The proposal density is N(x_hat; x - (eta^2/2) grad U(x), eta^2 I).
    For a proposal generated by a leapfrog step this equals
    :func:`log_accept_energy` of that step's energy error up to roundoff;
    the agreement is the testable form of the claim that the energy rule is
    the Metropolis-Hastings rule.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    pot_x, grad_x = target.value_and_grad(x)
    pot_hat, grad_hat = target.value_and_grad(x_hat)
    grad_x, grad_hat = np.asarray(grad_x, dtype=float), np.asarray(grad_hat, dtype=float)
    forward = x_hat - x + 0.5 * eta * eta * grad_x
    backward = x - x_hat + 0.5 * eta * eta * grad_hat
    log_ratio = (
        float(pot_x) - float(pot_hat)
        + (np.dot(forward, forward) - np.dot(backward, backward)) / (2.0 * eta * eta)
    )
    return min(0.0, log_ratio)


def kinetic_error_bound(c3: float, c4: float, bad_directions: np.ndarray, v: np.ndarray, eta: float) -> float:
    """Diagnostic upper bound on the kinetic-energy error of one step.

    eta^3 C3 |X^T v|_inf^2 |X^T v|_2 + eta^4 C4 |X^T v|_inf^4.
    """
    if c3 < 0 or c4 < 0:
        raise ValueError("c3 and c4 must be nonnegative")
    proj = np.asarray(bad_directions, dtype=float).T @ np.asarray(v, dtype=float)
    inf = float(np.max(np.abs(proj))) if proj.size else 0.0
    two = float(np.linalg.norm(proj))
    return eta**3 * c3 * inf**2 * two + eta**4 * c4 * inf**4
