"""The three Markov chains: MALA, constrained MALA, and random-walk Metropolis.

All chains are deterministic functions of ``(target, config, init)``; the
seed owns private counter-based streams.  Acceptance math stays in log
space until the single RNG comparison.  As printed in the source material
the acceptance exponent has the sign that *raises* acceptance when energy
increases; the implementations here use ``min(1, e^{-dH})`` (and
``min(1, e^{U(z)-U(z_hat)})`` for the random walk), which is what detailed
balance requires — the discretized-kernel tests assert the balance
equations directly.

One lockstep loop advances every chain: an ``(n, d)`` batch of rows, each
with its own step size, carrying its position, potential and (for MALA)
gradient.  A single chain is a batch of one.  Each seed owns three Philox
streams, ``chain_rng(seed, purpose)``: the lazy coin, the velocities and the
uniforms.  :func:`run_chains` gives each row its own seed, so a row's draws
do not depend on the rows beside it; :func:`run_ensemble` gives one seed
all its replicas.  Traces are written columnwise into preallocated arrays.

Each step makes one oracle call on the rows that propose (for MALA, the
fused ``value_and_grad`` inside :func:`malakit.integrator.leapfrog`).  A proposal whose energy error is NaN is
rejected.  A row with a non-finite gradient leaves the batch: :func:`run_chains`
returns its :class:`NumericFailure`, and :func:`run_ensemble` raises the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .integrator import NumericFailure, leapfrog, log_accept_energy
from .rng import chain_rng
from .targets import ConstraintSet, TargetModel

__all__ = [
    "ChainConfig",
    "ChainTrace",
    "EnsembleResult",
    "run_chains",
    "run_mala",
    "run_rwm",
    "run_constrained_mala",
    "run_ensemble",
    "extract_minimizer",
    "theorem1_step_size",
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
        if not 0.0 < self.step_size < math.inf:
            raise ValueError(f"step_size must be finite and positive, got {self.step_size}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


class ChainTrace:
    """Columnar record of one chain run.  Row ``k`` is step ``indices[k]``;
    a rejected or lazy step repeats the previous state.  ``log_accepts`` is
    :func:`log_accept_energy` of ``energy_errors``."""

    def __init__(self, init_state: np.ndarray, indices, states, energy_errors, accepted,
                 potentials, gradient_evals: int, function_evals: int):
        self.init_state = np.asarray(init_state, dtype=float)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.states = np.asarray(states, dtype=float)
        self.energy_errors = np.asarray(energy_errors, dtype=float)
        self.log_accepts = log_accept_energy(self.energy_errors)
        self.accepted = np.asarray(accepted, dtype=bool)
        self.potentials = np.asarray(potentials, dtype=float)
        self.gradient_evals = int(gradient_evals)
        self.function_evals = int(function_evals)
        if len(self.indices) == 0:
            raise ValueError("a trace must contain at least one record")

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def argmin_index(self) -> int:
        """Row of the recorded minimum potential (first on ties)."""
        return int(np.argmin(self.potentials))

    def to_csv(self, path) -> Path:
        """Write `i,accepted,energy_error,log_accept,potential,x_0..x_{d-1}`:
        `accepted` as 0/1, each float as its shortest round-trip ``repr``."""
        path = Path(path)
        d = self.states.shape[1]
        header = "i,accepted,energy_error,log_accept,potential," + ",".join(f"x_{j}" for j in range(d))
        floats = [self.energy_errors, self.log_accepts, self.potentials, *self.states.T]
        with path.open("w") as f:
            f.write(header + "\n")
            for lo in range(0, len(self), _CSV_BLOCK_ROWS):
                rows = slice(lo, lo + _CSV_BLOCK_ROWS)
                columns = [map(str, self.indices[rows].tolist()),
                           map(str, self.accepted[rows].view(np.uint8).tolist())]
                columns += [_float_reprs(column[rows]) for column in floats]
                f.write("\n".join(map(",".join, zip(*columns))) + "\n")
        return path


_CSV_BLOCK_ROWS = 1024  # rows formatted per write, so the writer's memory does not grow with the trace


def _float_reprs(column: np.ndarray) -> list[str]:
    """``repr`` of each float of ``column``, formatted once per distinct bit
    pattern (so ``-0.0`` and ``0.0`` stay apart): a rejected or lazy step
    repeats the previous state."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    reprs = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return reprs[inverse].tolist()


def _gradient_failure(grad: np.ndarray, index: int) -> NumericFailure:
    """The error for a non-finite gradient; coordinates are columns of ``grad``."""
    bad = np.flatnonzero(~np.isfinite(np.atleast_2d(grad)).all(axis=0)).tolist()
    return NumericFailure(f"non-finite gradient at step {index}, coordinates {bad}", bad)


_DRAW_BLOCK = 2**14  # velocity values per refill, over all rows: memory does not grow with the batch


class _Draws:
    """The draws of the lockstep rows.  Each seed owns ``width`` rows and
    three streams: ``chain_rng(seed, 0)`` for the lazy coin (``random() <
    0.5`` stays put), ``chain_rng(seed, 1)`` for the velocities and
    ``chain_rng(seed, 2)`` for the uniforms ``u``, used as ``log(1 - u)``.
    Every row draws a velocity and a uniform at every step, lazy or not, so
    step ``i`` uses draw ``i``.  The streams refill in blocks of a fixed
    number of values; Philox fills sequentially, so the block size never
    changes a draw.  A call returns (the rows that move, or None for all,
    velocities, log-uniforms)."""

    def __init__(self, seeds, width: int, d: int, lazy: bool):
        self.coins, self.velocities, self.uniforms = ([chain_rng(s, p) for s in seeds] for p in range(3))
        self.shape = (max(1, _DRAW_BLOCK // (len(seeds) * width * d)), width)  # (steps per refill, width)
        self.d, self.lazy, self.k = d, lazy, self.shape[0]

    def __call__(self):
        if self.k == self.shape[0]:  # refill, one call per stream
            self.k = 0
            self.v = np.concatenate([rng.standard_normal((*self.shape, self.d)) for rng in self.velocities], axis=1)
            self.log_u = np.log(1.0 - np.concatenate([rng.random(self.shape) for rng in self.uniforms], axis=1))
            if self.lazy:
                self.move = np.concatenate([rng.random(self.shape) for rng in self.coins], axis=1) >= 0.5
        k, self.k = self.k, self.k + 1
        return (self.move[k] if self.lazy else None), self.v[k], self.log_u[k]


class _Columns:
    """Trace columns, preallocated and time-major: ``[k, j]`` is row ``j`` at
    the ``k``-th recorded step.  A row that did not propose reads rejected, with energy error 0."""

    def __init__(self, n: int, d: int, iterations: int, stride: int):
        self.indices = np.unique(np.append(np.arange(stride, iterations + 1, stride), iterations))
        m = len(self.indices)
        self.states, self.potentials, self.energy_errors = np.empty((m, n, d)), np.empty((m, n)), np.zeros((m, n))
        self.accepted = np.zeros((m, n), dtype=bool)
        self.k, self.stride, self.last = 0, stride, iterations
        self.next_index = int(self.indices[0])  # the step to record next

    def write(self, x, pot, act, err, acc) -> None:
        k = self.k
        self.states[k] = x
        self.potentials[k] = pot
        if err is not None:
            at = (k,) if act is None else (k, act)
            self.energy_errors[at] = err
            self.accepted[at] = acc
        self.k += 1
        self.next_index = min(self.next_index + self.stride, self.last)


@np.errstate(over="ignore", invalid="ignore")  # non-finite values are handled below
def _lockstep(target, kind, eta, x, iterations, draws, constraint=None, columns=None,
              callback=None, callback_every=0):
    """Advance the rows of ``x`` in lockstep: the only place that proposes and accepts.

    ``eta`` is a float or an ``(n, 1)`` column of per-row step sizes.  A row
    whose gradient is non-finite leaves the batch.  Returns the final rows,
    the proposals per row, the accepted count and the failures by row, in
    the order found: at the start, then step by step, lowest row first.
    """
    mala = kind == "mala"
    potential, value_and_grad = target.potential, target.value_and_grad
    x = np.array(x, dtype=float)
    live = np.ones(len(x), dtype=bool)
    per_row = np.ndim(eta) > 0
    full_steps, proposals, accepted, failures = 0, np.zeros(len(x), dtype=np.int64), 0, {}

    def fail(rows, grads, step):
        failures.update((j, _gradient_failure(g, step)) for j, g in zip(rows.tolist(), grads))
        live[rows] = False

    if mala:
        pot, grad = (np.array(a, dtype=float) for a in value_and_grad(x))
        finite = np.isfinite(grad).all(axis=1)
        if not finite.all():
            fail(np.flatnonzero(~finite), grad[~finite], 1)
    else:
        pot, grad = np.array(potential(x), dtype=float), None

    for i in range(1, iterations + 1):
        if len(failures) == len(x):
            break  # every row failed
        move, v, log_u = draws()
        act = err = acc = None
        if move is not None or failures:
            act = np.flatnonzero(live if move is None else live & move)
            if act.size == len(x):
                act = None
        if act is None:
            xa, pa, ga, va, lu, ea = x, pot, grad, v, log_u, eta
        elif act.size:
            xa, pa, va, lu = x[act], pot[act], v[act], log_u[act]
            ga = grad[act] if mala else None
            ea = eta[act] if per_row else eta
        if act is None or act.size:
            if mala:
                x_hat, _, pot_hat, grad_hat, err = leapfrog(value_and_grad, xa, va, pa, ga, ea)
            else:
                x_hat = xa + ea * va
                pot_hat = np.asarray(potential(x_hat), dtype=float)
                err = pot_hat - pa
            acc = lu <= -err  # log_u <= 0, so this is log_u <= min(0, -err); NaN rejects
            if constraint is not None:
                acc &= np.asarray(constraint.contains(x_hat), dtype=bool)
            if mala and not np.isfinite(grad_hat).all():
                bad = np.flatnonzero(~np.isfinite(grad_hat).all(axis=1))
                fail(bad if act is None else act[bad], grad_hat[bad], i)
                acc[bad] = False
            accepted += int(np.count_nonzero(acc))
            if act is None:
                full_steps += 1
                np.copyto(x, x_hat, where=acc[:, None])
                np.copyto(pot, pot_hat, where=acc)
                if mala:
                    np.copyto(grad, grad_hat, where=acc[:, None])
            else:
                proposals[act] += 1
                took = act[acc]
                x[took], pot[took] = x_hat[acc], pot_hat[acc]
                if mala:
                    grad[took] = grad_hat[acc]
        if columns is not None and i == columns.next_index:
            columns.write(x, pot, act, err, acc)
        if callback is not None and callback_every > 0 and (i % callback_every == 0 or i == iterations):
            if callback(i, x):
                break
    return x, proposals + full_steps, accepted, failures


def _checked_starts(target, starts, constraint, rows: int | None = None) -> np.ndarray:
    """``starts`` as an ``(n, d)`` float array, with ``n >= 1`` (``rows`` when
    given).  Every engine refuses a start that is non-finite or outside
    ``constraint`` with the same ValueError."""
    x = np.asarray(starts, dtype=float)
    if x.ndim != 2 or x.shape[1] != target.dimension or len(x) < 1 or rows not in (None, len(x)):
        raise ValueError(f"starts must have shape ({rows or 'n >= 1'}, {target.dimension}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("init must be finite")
    if constraint is not None and not np.all(constraint.contains(x)):
        raise ValueError("initial point must satisfy the constraint")
    return x


def run_chains(target: TargetModel, kind: str, configs: list[ChainConfig],
               inits: np.ndarray) -> list[ChainTrace | NumericFailure]:
    """Run one chain per config in lockstep; entry ``j`` is the chain of
    ``configs[j]`` started at ``inits[j]``.

    ``kind`` is ``mala``, ``rwm`` or ``constrained-mala``.  The configs may
    differ only in ``step_size`` and ``seed``.  Each row draws from its own
    seed's streams, so entry ``j`` is the run of ``configs[j]`` alone (bit for
    bit on elementwise targets; a dataset target's matrix product can round
    differently with the number of rows).  A row whose gradient is
    non-finite stops there, and its entry is the :class:`NumericFailure`;
    the other rows carry on.
    """
    if kind not in ("mala", "rwm", "constrained-mala"):
        raise ValueError(f"unknown chain kind {kind!r}")
    if not configs:
        raise ValueError("need at least one config")
    first = configs[0]
    shared = (first.iterations, first.lazy, first.constraint, first.record_every)
    if any((c.iterations, c.lazy, c.constraint, c.record_every) != shared for c in configs):
        raise ValueError("configs run in lockstep must share iterations, lazy, constraint and record_every")
    constraint = first.constraint
    if (constraint is not None) != (kind == "constrained-mala"):
        raise ValueError("only constrained-mala takes a constraint, and it requires one")
    inits = _checked_starts(target, inits, constraint, len(configs))
    n, d = inits.shape
    mala = kind != "rwm"
    cols = _Columns(n, d, first.iterations, first.record_every)
    _, proposals, _, failures = _lockstep(
        target, "mala" if mala else "rwm", np.array([[c.step_size] for c in configs]), inits,
        first.iterations, _Draws([c.seed for c in configs], 1, d, first.lazy), constraint, cols)
    results: list[ChainTrace | NumericFailure] = []
    for j in range(n):
        evals = 1 + int(proposals[j])  # one oracle call at the start and per non-lazy step
        results.append(failures[j] if j in failures else ChainTrace(
            init_state=inits[j], indices=cols.indices, states=cols.states[:, j].copy(),
            energy_errors=cols.energy_errors[:, j].copy(),
            accepted=cols.accepted[:, j].copy(),
            potentials=cols.potentials[:, j].copy(), gradient_evals=2 * (evals - 1) if mala else 0,
            function_evals=evals))
    return results


def _run_one(target, kind, config, init) -> ChainTrace:
    init = np.asarray(init, dtype=float)
    if init.shape != (target.dimension,):
        raise ValueError(f"init must have shape ({target.dimension},)")
    (result,) = run_chains(target, kind, [config], init[None, :])
    if isinstance(result, NumericFailure):
        raise result
    return result


def run_mala(target: TargetModel, config: ChainConfig, init: np.ndarray) -> ChainTrace:
    """Run the MALA chain.  Gradient cost is exactly 2 per non-lazy step in
    the paper's accounting; the oracle does one fused call per such step,
    plus one at the start."""
    return _run_one(target, "mala", config, init)


def run_rwm(target: TargetModel, config: ChainConfig, init: np.ndarray) -> ChainTrace:
    """Run random-walk Metropolis.  Zero gradient evaluations; one fresh
    potential evaluation per non-lazy step plus one at the start."""
    return _run_one(target, "rwm", config, init)


def run_constrained_mala(target: TargetModel, config: ChainConfig, init: np.ndarray) -> ChainTrace:
    """MALA with Metropolis acceptance followed by constraint rejection.

    Every visited state stays inside the constraint set; the trace's
    recorded minimum is the optimizer output.
    """
    return _run_one(target, "constrained-mala", config, init)


@dataclass(frozen=True)
class EnsembleResult:
    """Final positions of many replicas advanced in lockstep.

    Counts are per replica: one batched call over ``k`` rows counts ``k``.
    """

    positions: np.ndarray
    accepted_fraction: float
    gradient_evals: int
    function_evals: int


def run_ensemble(
    target: TargetModel,
    kind: str,
    eta: float,
    iterations: int,
    init_positions: np.ndarray,
    seed: int,
    constraint: ConstraintSet | None = None,
    callback: Callable[[int, np.ndarray], None] | None = None,
    callback_every: int = 0,
) -> EnsembleResult:
    """Advance many independent replicas of one chain, vectorized.

    This is the distribution-level driver behind the TV and mixing-time
    measurements: the replicas' positions at a fixed iteration estimate the
    chain's marginal law there.  The replicas share the streams of ``seed``,
    taking ``n`` draws of each per step, so the result is a pure function of
    the arguments, and one replica is the :func:`run_mala` (or
    :func:`run_rwm`) chain of ``seed``.  A replica whose gradient is
    non-finite leaves the batch, and the first such
    :class:`NumericFailure` (earliest step, lowest replica) is raised at the
    end.  The starts are checked as in :func:`run_chains`: a non-finite
    start, or one outside ``constraint``, is a ValueError before any step.
    A callback returning a truthy value stops the run early (used by the
    mixing-time search).
    """
    if kind not in ("mala", "rwm"):
        raise ValueError(f"unknown chain kind {kind!r}")
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be finite and positive, got {eta}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    x = _checked_starts(target, init_positions, constraint)
    n, d = x.shape
    x, proposals, accepted, failures = _lockstep(target, kind, float(eta), x, iterations,
                                                 _Draws([seed], n, d, False), constraint, callback=callback,
                                                 callback_every=callback_every)
    if failures:
        raise next(iter(failures.values()))
    decisions = int(proposals.sum())
    evals = n + decisions  # the start, then the proposing rows of each step
    return EnsembleResult(positions=x, accepted_fraction=accepted / decisions if decisions else 0.0,
                          gradient_evals=2 * decisions if kind == "mala" else 0,
                          function_evals=evals)


def extract_minimizer(trace: ChainTrace) -> tuple[np.ndarray, float]:
    """State and potential at the recorded minimum (the optimizer output)."""
    k = trace.argmin_index
    return trace.states[k].copy(), float(trace.potentials[k])


def theorem1_step_size(c3: float, c4: float, gradient_bound: float, d: int,
                       safety_constant: float = 1.0) -> float:
    """Step size from the higher-order regularity constants.

    eta = c * min(C3^{-1/3} d^{-1/6}, d^{-1/3}, C4^{-1/4}) * min(1, M^{-1/2}),
    where terms with a zero constant drop out of the min.
    """
    if not 0.0 < gradient_bound < math.inf:
        raise ValueError(f"gradient_bound must be finite and positive, got {gradient_bound}")
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 < safety_constant < math.inf:
        raise ValueError(f"safety_constant must be finite and positive, got {safety_constant}")
    if not (0.0 <= c3 < math.inf and 0.0 <= c4 < math.inf):
        raise ValueError(f"c3 and c4 must be finite and nonnegative, got {c3} and {c4}")
    terms = [d ** (-1.0 / 3.0)]
    if c3 > 0:
        terms.append(c3 ** (-1.0 / 3.0) * d ** (-1.0 / 6.0))
    if c4 > 0:
        terms.append(c4 ** (-0.25))
    return safety_constant * min(terms) * min(1.0, gradient_bound ** -0.5)
