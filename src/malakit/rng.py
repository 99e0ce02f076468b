"""Reproducible random-number streams: the one place a seed becomes a stream.

All randomness flows through the counter-based Philox generator.  A seed
``s`` owns a tree of nodes ``SeedSequence(s, spawn_key=key)``:
``chain_rng(s, *key)`` draws from a node, and ``subseed(s, *key)`` makes one
the integer seed of a tree of its own.  No module does arithmetic on a
seed, so a stream's draws do not depend on which other streams run.  The map:

- ``subseed(s, k)``: cell ``k``'s seed ``c`` in a run; step size ``k``'s
  seed ``e`` in a scaling study or ``energy_error_scaling``.
- ``chain_rng(c, 0|1|2)``: a chain's lazy coin, velocities and uniforms;
  ``chain_rng(c, 3)``: a cell's warm start in an annulus.
- ``chain_rng(s, i, 0)`` and ``chain_rng(s, i, j)``, ``j >= 1``: c3/c4 probe
  point ``i`` and its directions; ``chain_rng(s, 10**6)``: the gradient-bound
  cloud; ``chain_rng(s, 10**6 + 1)``: a run's ``tv_vs_truth`` binning floor.
- ``subseed(e, 0|1|2)``: a mixing estimate's floor, start and ensemble.
- ``chain_rng(s)``: a dataset, ``hanson_wright_check``, and
  ``energy_error_scaling`` at ``e``; ``chain_rng(s, 0)``: ``constraint_exit_estimate``.
"""

from __future__ import annotations

import numpy as np


def chain_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for a single chain or diagnostic keyed by ``seed``; a
    ``key`` selects the substream ``SeedSequence(seed, spawn_key=key)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def subseed(seed: int, *key: int) -> int:
    """Stable 63-bit integer seed of node ``key`` of ``seed``: the first word
    of ``SeedSequence(seed, spawn_key=key)``, shifted right by one."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)
