"""The leapfrog kernel and the acceptance rule.

:func:`leapfrog` is the one leapfrog step in the package, on an ``(n, d)``
batch of phase points: the chain engine, the energy-error diagnostics and
the good-set check all call it, so the checks of the step check the step
the chains run.  A single phase point is a batch of one.
The Metropolis correction is driven entirely by the energy-conservation
error of a single leapfrog step: the log acceptance probability is
``min(0, -dH)``.  An independent formulation of the same rule — the
classical proposal-density ratio for the Gaussian drift proposal — is
provided so the two can be checked against each other to floating-point
accuracy.
"""

from __future__ import annotations

import math

import numpy as np

from .targets import TargetModel

__all__ = [
    "NumericFailure",
    "leapfrog",
    "log_accept_energy",
    "log_accept_proposal_form",
]


class NumericFailure(RuntimeError):
    """A gradient or potential came back non-finite; the message names the step and the coordinates."""


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
    err = (pot_hat + 0.5 * np.vecdot(v_hat, v_hat)) - (pot + 0.5 * np.vecdot(v, v))
    return x_hat, v_hat, pot_hat, grad_hat, err


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
