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

import math
from dataclasses import dataclass

import numpy as np

from .targets import TargetModel

__all__ = [
    "PhaseState",
    "LeapfrogResult",
    "NumericFailure",
    "leapfrog",
    "leapfrog_step",
    "log_accept_energy",
    "log_accept_proposal_form",
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
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be finite and positive, got {eta}")
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
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be finite and positive, got {eta}")
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
