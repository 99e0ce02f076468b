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

Rows advance by move events, one draw block at a time: a block's lazy coins
are drawn with it, so the ``e``-th moves of all rows propose together in one
full-batch oracle call (for MALA, the fused ``value_and_grad`` inside
:func:`malakit.integrator.leapfrog`), and a step where a row stays put does
no work.  In an eager run every step is an event of every row.  A row that
has no ``e``-th move in the block, or has failed, still proposes with the
batch but is masked out of the acceptance, the counts and the trace.  A
proposal whose energy error is NaN is rejected.  A row with a non-finite
gradient fails at the step of that move: :func:`run_chains` returns its
:class:`NumericFailure`, and :func:`run_ensemble` raises the first.
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
    return NumericFailure(f"non-finite gradient at step {index}, coordinates {bad}")


_DRAW_BLOCK = 2**14  # velocity values per refill, over all rows: memory does not grow with the batch


class _Draws:
    """The draws of the lockstep rows.  Each seed owns ``width`` rows and
    three streams: ``chain_rng(seed, 0)`` for the lazy coin (``random() <
    0.5`` stays put), ``chain_rng(seed, 1)`` for the velocities and
    ``chain_rng(seed, 2)`` for the uniforms ``u``, used as ``log(1 - u)``.
    Every row draws a velocity and a uniform at every step, lazy or not, so
    step ``i`` uses draw ``i``.  A call hands out the next refill block of
    ``steps`` steps, one call per stream: (the moves as a ``(steps, rows)``
    mask, or None when every row moves at every step, velocities,
    log-uniforms).  Philox fills sequentially, so the block size never
    changes a draw."""

    def __init__(self, seeds, width: int, d: int, lazy: bool):
        self.coins, self.velocities, self.uniforms = ([chain_rng(s, p) for s in seeds] for p in range(3))
        self.steps = max(1, _DRAW_BLOCK // (len(seeds) * width * d))
        self.shape, self.d, self.lazy = (self.steps, width), d, lazy

    def __call__(self):
        v = np.concatenate([rng.standard_normal((*self.shape, self.d)) for rng in self.velocities], axis=1)
        log_u = np.log(1.0 - np.concatenate([rng.random(self.shape) for rng in self.uniforms], axis=1))
        if not self.lazy:
            return None, v, log_u
        return np.concatenate([rng.random(self.shape) for rng in self.coins], axis=1) >= 0.5, v, log_u


class _Columns:
    """Trace columns, preallocated and time-major: ``[k, j]`` is row ``j`` at
    the ``k``-th recorded step.  Within one draw block the engine keeps every
    event's outcome in a slot of its own (slot 0 is the block's start, slot
    ``e`` the ``e``-th event), and :meth:`close` fills each of the block's
    records from the slot of its row's event count at that step.  A row that
    did not propose at the step reads rejected, with energy error 0."""

    def __init__(self, n: int, d: int, iterations: int, stride: int):
        self.indices = np.unique(np.append(np.arange(stride, iterations + 1, stride), iterations))
        m = len(self.indices)
        self.states, self.potentials, self.energy_errors = np.empty((m, n, d)), np.empty((m, n)), np.empty((m, n))
        self.accepted = np.empty((m, n), dtype=bool)

    def open(self, start, length, move, events, x, pot) -> bool:
        """Begin the block of steps ``start + 1 .. start + length``; False if
        no step of it is recorded."""
        lo, hi = np.searchsorted(self.indices, [start + 1, start + length + 1])
        if lo == hi:
            return False
        steps = self.indices[lo:hi] - (start + 1)
        self.at, self.moved = slice(lo, hi), None if move is None else move[steps]
        # each row's events up to and including each recorded step (a failed
        # row's, never read, can pass ``events``)
        self.slot = steps[:, None] + 1 if move is None else np.minimum(np.cumsum(move, axis=0)[steps], events)
        size = (events + 1, len(x))  # at most (steps + 1) * n * d values: bounded by the draw block
        self.x, self.pot = np.empty((*size, x.shape[1])), np.empty(size)
        self.err, self.acc = np.zeros(size), np.zeros(size, dtype=bool)
        self.x[0], self.pot[0] = x, pot
        return True

    def keep(self, e, x, pot, err, acc) -> None:
        self.x[e], self.pot[e], self.err[e], self.acc[e] = x, pot, err, acc

    def close(self) -> None:
        slot, rows = self.slot, np.arange(self.pot.shape[1])
        self.states[self.at], self.potentials[self.at] = self.x[slot, rows], self.pot[slot, rows]
        err, acc = self.err[slot, rows], self.acc[slot, rows]
        if self.moved is not None:
            err, acc = np.where(self.moved, err, 0.0), acc & self.moved
        self.energy_errors[self.at], self.accepted[self.at] = err, acc
        del self.x, self.pot, self.err, self.acc  # so that two blocks' buffers never coexist


@np.errstate(over="ignore", invalid="ignore")  # non-finite values are handled below
def _lockstep(target, kind, eta, x, iterations, draws, constraint=None, columns=None,
              callback=None, callback_every=0):
    """Advance the rows of ``x`` in lockstep: the only place that proposes and accepts.

    ``eta`` is a float or an ``(n, 1)`` column of per-row step sizes.  Row
    ``j``'s ``e``-th event in a draw block is its ``e``-th move, at block
    step ``at[e, j]``.  Every row proposes at every event, in one oracle
    call; a row out of moves, or failed, sits out under a mask: it is never
    accepted, counted, failed or recorded.  The mask is None while every row
    moves.  A block ends at the last move of a live row, and the run ends
    once every row has failed.  A row that fails at the start proposes with
    a zero gradient, so the oracle never sees a non-finite position from
    it.  Returns the final rows, the proposals per row, the accepted count
    and the failures by row, each naming the step of its event, in the
    order found: at the start, then event by event, lowest row first.
    ``callback(i, x)`` runs after step ``i`` of an eager run.
    """
    mala = kind == "mala"
    potential, value_and_grad = target.potential, target.value_and_grad
    x = np.array(x, dtype=float)
    n = len(x)
    live, rows = np.ones(n, dtype=bool), np.arange(n)
    proposals, accepted, failures = np.zeros(n, dtype=np.int64), 0, {}

    def fail(bad, grads, steps):
        steps = np.broadcast_to(steps, bad.shape).tolist()
        failures.update((j, _gradient_failure(g, s)) for j, g, s in zip(bad.tolist(), grads, steps))
        live[bad] = False

    if mala:
        pot, grad = (np.array(a, dtype=float) for a in value_and_grad(x))
        finite = np.isfinite(grad).all(axis=1)
        if not finite.all():
            fail(np.flatnonzero(~finite), grad[~finite], 1)
            grad[~finite] = 0.0
    else:
        pot, grad = np.array(potential(x), dtype=float), None

    stop = False
    for start in range(0, iterations, draws.steps):
        if stop or len(failures) == n:  # the callback stopped the run, or every row failed
            break
        move, v, log_u = draws()
        length = min(draws.steps, iterations - start)
        if move is None:
            count, events = None, length
        else:
            move = move[:length]
            count = np.count_nonzero(move, axis=0)
            events, full = int(count[live].max()), int(count[live].min())  # a failed row has no more moves
            at = np.argsort(~move, axis=0, kind="stable")[:events]  # at[e, j]: block step of row j's e-th move
            v, log_u = v[at, rows], log_u[at, rows]
        record = columns is not None and columns.open(start, length, move, events, x, pot)
        done = 0
        for e in range(events):
            if len(failures) == n:
                break  # every row failed
            mask = None
            if count is not None and e >= full:
                mask = live & (count > e)
            elif failures:
                mask = live
            if mala:
                x_hat, _, pot_hat, grad_hat, err = leapfrog(value_and_grad, x, v[e], pot, grad, eta)
            else:
                x_hat = x + eta * v[e]
                pot_hat = np.asarray(potential(x_hat), dtype=float)
                err = pot_hat - pot
            acc = log_u[e] <= -err  # log_u <= 0, so this is log_u <= min(0, -err); NaN rejects
            if mask is not None:
                acc &= mask
            if constraint is not None:
                acc &= np.asarray(constraint.contains(x_hat), dtype=bool)
            if mala and not np.isfinite(grad_hat).all():
                bad = ~np.isfinite(grad_hat).all(axis=1)
                j = np.flatnonzero(bad if mask is None else bad & mask)
                fail(j, grad_hat[j], start + 1 + (e if count is None else at[e, j]))
                acc[j] = False
            accepted += int(np.count_nonzero(acc))
            np.copyto(x, x_hat, where=acc[:, None])
            np.copyto(pot, pot_hat, where=acc)
            if mala:
                np.copyto(grad, grad_hat, where=acc[:, None])
            done = e + 1
            if record:
                columns.keep(done, x, pot, err, acc)
            if callback is not None and callback_every > 0:
                i = start + done
                if (i % callback_every == 0 or i == iterations) and callback(i, x):
                    stop = True
                    break
        proposals += done if count is None else np.minimum(count, done)
        if record:
            columns.close()
    return x, proposals, accepted, failures


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
    seed's streams, so entry ``j`` is the run of ``configs[j]`` alone: bit for
    bit for a batch of one, an eager batch and any batch on an elementwise
    target.  Lazy rows propose together by move event, not by step, so on a
    dataset target, whose matrix products round differently with the number
    of rows, a lazy batch can differ from its solo runs in the last bits.  A
    row whose gradient is non-finite stops there, and its entry is the
    :class:`NumericFailure` naming the step of that move; the other rows
    carry on.  A lazy batch finds its failures in event order, not step order.
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
    non-finite sits out the rest of the run, and the first such
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
