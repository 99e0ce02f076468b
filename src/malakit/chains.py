"""The three Markov chains: MALA, constrained MALA, and random-walk Metropolis.

All chains are deterministic functions of ``(target, config, init)``; the
seed owns a private counter-based stream.  Acceptance math stays in log
space until the single RNG comparison.  As printed in the source material
the acceptance exponent has the sign that *raises* acceptance when energy
increases; the implementations here use ``min(1, e^{-dH})`` (and
``min(1, e^{U(z)-U(z_hat)})`` for the random walk), which is what detailed
balance requires — the discretized-kernel tests assert the balance
equations directly.

Traces are stored columnwise (numpy arrays) so million-step runs stay
cheap; ``ChainTrace.records`` materializes per-step record objects on
demand.

The MALA engines carry the potential and gradient of the current state and
make one fused ``value_and_grad`` call per non-lazy step, at the proposal.
A proposal whose energy error is NaN is rejected, and a non-finite gradient
at a proposal raises :class:`NumericFailure`, in every engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .integrator import NumericFailure
from .rng import chain_rng
from .targets import ConstraintSet, TargetModel

__all__ = [
    "ChainConfig",
    "StepRecord",
    "ChainTrace",
    "EnsembleResult",
    "mala_step",
    "rwm_step",
    "run_mala",
    "run_rwm",
    "run_constrained_mala",
    "run_ensemble",
    "extract_minimizer",
    "theorem1_step_size",
    "warmness_on_grid",
]


@dataclass(frozen=True)
class ChainConfig:
    """Run parameters shared by all chains.

    ``lazy`` inserts a stay-put coin flip with probability 1/2 before each
    proposal (the kernel becomes (I + K)/2); lazy steps cost no gradient
    evaluations.  ``record_every`` thins the trace; the final step is always
    recorded so traces are never empty.
    """

    step_size: float
    iterations: int
    seed: int
    lazy: bool = False
    constraint: ConstraintSet | None = None
    record_every: int = 1

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    """One chain transition.  ``index`` is the 1-based step number i,
    so ``state`` is X_i; rejected steps repeat the previous state."""

    index: int
    state: np.ndarray
    proposed: np.ndarray
    energy_error: float
    log_accept_prob: float
    accepted: bool
    in_constraint: bool | None
    potential_value: float


class ChainTrace:
    """Columnar record of one chain run."""

    def __init__(self, config: ChainConfig, target_name: str, init_state: np.ndarray,
                 indices, states, proposed, energy_errors, log_accepts, accepted,
                 in_constraint, potentials, gradient_evals: int, function_evals: int,
                 oracle_calls: int = 0):
        self.config = config
        self.target_name = target_name
        self.init_state = np.asarray(init_state, dtype=float)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.states = np.asarray(states, dtype=float)
        self.proposed = np.asarray(proposed, dtype=float)
        self.energy_errors = np.asarray(energy_errors, dtype=float)
        self.log_accepts = np.asarray(log_accepts, dtype=float)
        self.accepted = np.asarray(accepted, dtype=bool)
        self.in_constraint = None if in_constraint is None else np.asarray(in_constraint, dtype=bool)
        self.potentials = np.asarray(potentials, dtype=float)
        self.gradient_evals = int(gradient_evals)
        self.function_evals = int(function_evals)
        self.oracle_calls = int(oracle_calls)
        if len(self.indices) == 0:
            raise ValueError("a trace must contain at least one record")

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def argmin_index(self) -> int:
        """Row of the recorded minimum potential (first on ties)."""
        return int(np.argmin(self.potentials))

    @property
    def records(self) -> list[StepRecord]:
        out = []
        for k in range(len(self.indices)):
            out.append(StepRecord(
                index=int(self.indices[k]),
                state=self.states[k],
                proposed=self.proposed[k],
                energy_error=float(self.energy_errors[k]),
                log_accept_prob=float(self.log_accepts[k]),
                accepted=bool(self.accepted[k]),
                in_constraint=None if self.in_constraint is None else bool(self.in_constraint[k]),
                potential_value=float(self.potentials[k]),
            ))
        return out

    def to_csv(self, path) -> Path:
        """Write `i,accepted,energy_error,log_accept,potential,x_0..x_{d-1}`."""
        path = Path(path)
        d = self.states.shape[1]
        header = "i,accepted,energy_error,log_accept,potential," + ",".join(f"x_{j}" for j in range(d))
        lines = [header]
        for k in range(len(self.indices)):
            fields = [str(int(self.indices[k])), str(int(self.accepted[k])),
                      repr(float(self.energy_errors[k])), repr(float(self.log_accepts[k])),
                      repr(float(self.potentials[k]))]
            fields.extend(repr(float(v)) for v in self.states[k])
            lines.append(",".join(fields))
        path.write_text("\n".join(lines) + "\n")
        return path


def mala_step(target: TargetModel, x: np.ndarray, eta: float, rng: np.random.Generator) -> StepRecord:
    """One MALA transition from ``x``: draw a velocity, leapfrog, accept/reject.

    The velocity is discarded after the acceptance decision; only the
    position survives into the returned record.
    """
    x = np.asarray(x, dtype=float)
    pot_x = float(target.potential(x))
    return _mala_transition(target, target.value_and_grad, x, pot_x, None, eta, rng,
                            index=1, constraint=None)[0]


def rwm_step(target: TargetModel, z: np.ndarray, eta: float, rng: np.random.Generator) -> StepRecord:
    """One random-walk Metropolis transition: propose z + eta*v, accept
    with probability min(1, e^{U(z) - U(z_hat)})."""
    z = np.asarray(z, dtype=float)
    pot_z = float(target.potential(z))
    return _rwm_transition(target, z, pot_z, eta, rng, index=1)[0]


def _log_accept(energy_error: float) -> float:
    """``min(0, -dH)``, except that a NaN error gives ``-inf`` (certain rejection)."""
    if energy_error > 0.0:
        return -energy_error
    return 0.0 if energy_error <= 0.0 else -math.inf


def _gradient_failure(grad: np.ndarray, index: int) -> NumericFailure:
    """The error for a non-finite gradient; coordinates are columns of ``grad``."""
    bad = np.flatnonzero(~np.isfinite(np.atleast_2d(grad)).all(axis=0)).tolist()
    return NumericFailure(f"non-finite gradient at step {index}, coordinates {bad}", bad)


def _mala_transition(target, value_and_grad, x, pot_x, grad_x, eta, rng, index, constraint):
    # grad_x is None only before the first non-lazy step; afterwards it is
    # the gradient carried with the current state.
    if grad_x is None:
        grad_x = np.asarray(target.gradient(x), dtype=float)
        if not np.isfinite(grad_x).all():
            raise _gradient_failure(grad_x, index)
    v = rng.standard_normal(x.shape[0])
    x_hat = x + eta * v - 0.5 * eta * eta * grad_x
    pot_hat, grad_hat = value_and_grad(x_hat)
    grad_hat = np.asarray(grad_hat, dtype=float)
    if not np.isfinite(grad_hat).all():
        raise _gradient_failure(grad_hat, index)
    v_hat = v - 0.5 * eta * (grad_x + grad_hat)
    pot_hat = float(pot_hat)
    energy_error = (pot_hat + 0.5 * float(v_hat @ v_hat)) - (pot_x + 0.5 * float(v @ v))
    log_accept = _log_accept(energy_error)
    u = 1.0 - rng.random()
    mh_accept = math.log(u) <= log_accept
    in_set = None
    if constraint is not None:
        in_set = bool(constraint.contains(x_hat))
        accepted = mh_accept and in_set
    else:
        accepted = mh_accept
    new_x, new_pot, new_grad = (x_hat, pot_hat, grad_hat) if accepted else (x, pot_x, grad_x)
    record = StepRecord(index=index, state=new_x, proposed=x_hat, energy_error=energy_error,
                        log_accept_prob=log_accept, accepted=accepted, in_constraint=in_set,
                        potential_value=new_pot)
    return record, new_x, new_pot, new_grad


def _rwm_transition(target, z, pot_z, eta, rng, index):
    v = rng.standard_normal(z.shape[0])
    z_hat = z + eta * v
    pot_hat = float(target.potential(z_hat))
    potential_gap = pot_hat - pot_z
    log_accept = _log_accept(potential_gap)
    u = 1.0 - rng.random()
    accepted = math.log(u) <= log_accept
    new_z, new_pot = (z_hat, pot_hat) if accepted else (z, pot_z)
    record = StepRecord(index=index, state=new_z, proposed=z_hat, energy_error=potential_gap,
                        log_accept_prob=log_accept, accepted=accepted, in_constraint=None,
                        potential_value=new_pot)
    return record, new_z, new_pot


def run_mala(target: TargetModel, config: ChainConfig, init: np.ndarray) -> ChainTrace:
    """Run the MALA chain.  Gradient cost is exactly 2 per non-lazy step in
    the paper's accounting; the oracle does one fused call per such step."""
    if config.constraint is not None:
        raise ValueError("use run_constrained_mala for constrained runs")
    return _run_chain(target, config, init, kind="mala", constrained=False)


def run_rwm(target: TargetModel, config: ChainConfig, init: np.ndarray) -> ChainTrace:
    """Run random-walk Metropolis.  Zero gradient evaluations; one fresh
    potential evaluation per non-lazy step plus one at the start."""
    if config.constraint is not None:
        raise ValueError("the random walk chain does not take a constraint")
    return _run_chain(target, config, init, kind="rwm", constrained=False)


def run_constrained_mala(target: TargetModel, config: ChainConfig, init: np.ndarray) -> ChainTrace:
    """MALA with Metropolis acceptance followed by constraint rejection.

    Every visited state stays inside the constraint set; the trace's
    recorded minimum is the optimizer output.
    """
    if config.constraint is None:
        raise ValueError("config.constraint is required")
    init = np.asarray(init, dtype=float)
    if not bool(config.constraint.contains(init)):
        raise ValueError("initial point must satisfy the constraint")
    return _run_chain(target, config, init, kind="mala", constrained=True)


def _run_chain(target, config, init, kind, constrained):
    init = np.asarray(init, dtype=float)
    if init.shape != (target.dimension,):
        raise ValueError(f"init must have shape ({target.dimension},)")
    if not np.all(np.isfinite(init)):
        raise ValueError("init must be finite")
    rng = chain_rng(config.seed)
    constraint = config.constraint if constrained else None

    x = init
    pot = float(target.potential(x))
    grad = None
    value_and_grad = target.value_and_grad
    function_evals = 1
    gradient_evals = 0
    n = config.iterations
    stride = config.record_every

    idx, states, proposed, errs, laccs, accs, insets, pots = [], [], [], [], [], [], [], []

    def push(rec: StepRecord):
        idx.append(rec.index)
        states.append(rec.state)
        proposed.append(rec.proposed)
        errs.append(rec.energy_error)
        laccs.append(rec.log_accept_prob)
        accs.append(rec.accepted)
        insets.append(True if rec.in_constraint is None else rec.in_constraint)
        pots.append(rec.potential_value)

    for i in range(1, n + 1):
        if config.lazy and rng.random() < 0.5:
            rec = StepRecord(index=i, state=x, proposed=x, energy_error=0.0, log_accept_prob=0.0,
                             accepted=False, in_constraint=True if constrained else None,
                             potential_value=pot)
        else:
            if kind == "mala":
                rec, x, pot, grad = _mala_transition(target, value_and_grad, x, pot, grad,
                                                     config.step_size, rng, i, constraint)
                gradient_evals += 2
            else:
                rec, x, pot = _rwm_transition(target, x, pot, config.step_size, rng, i)
            function_evals += 1
        if i % stride == 0 or i == n:
            if not idx or idx[-1] != i:
                push(rec)

    # One oracle call per non-lazy step and at the start, plus the initial
    # gradient that the first non-lazy MALA step computes.
    oracle_calls = function_evals + (1 if gradient_evals else 0)
    return ChainTrace(config=config, target_name=target.name, init_state=init,
                      indices=idx, states=states, proposed=proposed, energy_errors=errs,
                      log_accepts=laccs, accepted=accs,
                      in_constraint=insets if constrained else None, potentials=pots,
                      gradient_evals=gradient_evals, function_evals=function_evals,
                      oracle_calls=oracle_calls)


@dataclass(frozen=True)
class EnsembleResult:
    """Final positions of many replicas advanced in lockstep.

    Counts are per replica: one batched call over ``n`` rows counts ``n``.
    """

    positions: np.ndarray
    accepted_fraction: float
    gradient_evals: int
    function_evals: int
    oracle_calls: int


def run_ensemble(
    target: TargetModel,
    kind: str,
    eta: float,
    iterations: int,
    init_positions: np.ndarray,
    seed: int,
    constraint: ConstraintSet | None = None,
    lazy: bool = False,
    callback: Callable[[int, np.ndarray], None] | None = None,
    callback_every: int = 0,
) -> EnsembleResult:
    """Advance many independent replicas of one chain, vectorized.

    This is the distribution-level driver behind the TV and mixing-time
    measurements: the replicas' positions at a fixed iteration estimate the
    chain's marginal law there.  Requires a vectorized target.  All
    replicas draw from one counter-based stream in a fixed order, so the
    result is a pure function of the arguments.  A callback returning a
    truthy value stops the run early (used by the mixing-time search).
    """
    if kind not in ("mala", "rwm"):
        raise ValueError(f"unknown chain kind {kind!r}")
    if not target.vectorized:
        raise ValueError("run_ensemble needs a target with vectorized callables")
    if eta <= 0 or iterations < 1:
        raise ValueError("eta must be positive and iterations >= 1")
    x = np.array(init_positions, dtype=float)
    if x.ndim != 2 or x.shape[1] != target.dimension:
        raise ValueError("init_positions must be (replicas, d)")
    n, d = x.shape
    rng = chain_rng(seed)
    if kind == "mala":
        value_and_grad = target.value_and_grad
        pot, grad = value_and_grad(x)
        pot, grad = np.asarray(pot, dtype=float), np.asarray(grad, dtype=float)
        if not np.isfinite(grad).all():
            raise _gradient_failure(grad, 1)
    else:
        pot = np.asarray(target.potential(x), dtype=float)
    gradient_evals = 0
    function_evals = n
    accept_count = 0
    decision_count = 0

    for i in range(1, iterations + 1):
        active = np.ones(n, dtype=bool)
        if lazy:
            active = rng.random(n) >= 0.5
        v = rng.standard_normal((n, d))
        if kind == "mala":
            x_hat = x + eta * v - 0.5 * eta * eta * grad
            pot_hat, grad_hat = value_and_grad(x_hat)
            pot_hat, grad_hat = np.asarray(pot_hat, dtype=float), np.asarray(grad_hat, dtype=float)
            if not np.isfinite(grad_hat).all():
                # Lazy replicas stay put, so their proposals are never used.
                bad_rows = active & ~np.isfinite(grad_hat).all(axis=1)
                if bad_rows.any():
                    raise _gradient_failure(grad_hat[bad_rows], i)
            v_hat = v - 0.5 * eta * (grad + grad_hat)
            energy_error = (pot_hat + 0.5 * np.sum(v_hat * v_hat, axis=1)) - (pot + 0.5 * np.sum(v * v, axis=1))
            gradient_evals += 2 * n
        else:
            x_hat = x + eta * v
            pot_hat = np.asarray(target.potential(x_hat), dtype=float)
            energy_error = pot_hat - pot
        function_evals += n
        log_accept = np.minimum(0.0, -energy_error)
        u = 1.0 - rng.random(n)
        accept = np.log(u) <= log_accept
        if constraint is not None:
            accept &= np.asarray(constraint.contains(x_hat), dtype=bool)
        accept &= active
        accept_count += int(np.count_nonzero(accept))
        decision_count += int(np.count_nonzero(active))
        x = np.where(accept[:, None], x_hat, x)
        pot = np.where(accept, pot_hat, pot)
        if kind == "mala":
            grad = np.where(accept[:, None], grad_hat, grad)
        if callback is not None and callback_every > 0 and (i % callback_every == 0 or i == iterations):
            if callback(i, x):
                break

    frac = accept_count / decision_count if decision_count else 0.0
    # Each step makes one batched oracle call (fused for MALA), as does the start.
    return EnsembleResult(positions=x, accepted_fraction=float(frac),
                          gradient_evals=gradient_evals, function_evals=function_evals,
                          oracle_calls=function_evals)


def extract_minimizer(trace: ChainTrace) -> tuple[np.ndarray, float]:
    """State and potential at the recorded minimum (the optimizer output)."""
    k = trace.argmin_index
    return trace.states[k].copy(), float(trace.potentials[k])


def theorem1_step_size(c3: float, c4: float, gradient_bound: float, d: int,
                       tail_rate: float | None = None, safety_constant: float = 1.0) -> float:
    """Step size from the higher-order regularity constants.

    eta = c * min(C3^{-1/3} d^{-1/6}, d^{-1/3}, C4^{-1/4}) * min(1, M^{-1/2}) * f
    where terms with a zero constant drop out of the min and ``f`` is the
    reciprocal iterated-log tail factor, clamped to (0, 1] so the schedule
    is computable for every tail rate.
    """
    if gradient_bound <= 0:
        raise ValueError("gradient_bound must be positive")
    if d < 1:
        raise ValueError("d must be >= 1")
    if safety_constant <= 0:
        raise ValueError("safety_constant must be positive")
    if c3 < 0 or c4 < 0:
        raise ValueError("c3 and c4 must be nonnegative")
    terms = [d ** (-1.0 / 3.0)]
    if c3 > 0:
        terms.append(c3 ** (-1.0 / 3.0) * d ** (-1.0 / 6.0))
    if c4 > 0:
        terms.append(c4 ** (-0.25))
    loglog_factor = 1.0
    if tail_rate is not None and tail_rate > 0:
        t = -math.log(tail_rate)  # log(1/a)
        if t > 0:
            loglog_factor = min(1.0, 1.0 / max(1.0, math.log(t)))
    return safety_constant * min(terms) * min(1.0, gradient_bound ** -0.5) * loglog_factor


def warmness_on_grid(start_dist, target_dist) -> float:
    """Warmness beta = max cell ratio mu0 / pi on a shared grid.

    On a grid the supremum over sets is attained cellwise.  Start mass on a
    zero-target cell means the start is not warm at any finite level; the
    returned value is ``inf`` in that case.
    """
    if start_dist.shape != target_dist.shape or start_dist.dims != target_dist.dims:
        raise ValueError("distributions must share grid geometry")
    mu = start_dist.mass.ravel()
    pi = target_dist.mass.ravel()
    live = mu > 0
    if np.any(pi[live] == 0.0):
        return math.inf
    return float(np.max(mu[live] / pi[live])) if np.any(live) else 0.0
