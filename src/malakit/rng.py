"""Reproducible random-number streams.

All randomness in the package flows through the counter-based Philox
generator.  A master seed owns a tree of child streams: cells, probe
loops, and diagnostics each get their own branch through a ``SeedSequence``
spawn key, so a stream's draws do not depend on execution order or on
which other streams run beside it.
"""

from __future__ import annotations

import numpy as np


def chain_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for a single chain or diagnostic keyed by ``seed``; a
    ``key`` selects the substream ``SeedSequence(seed, spawn_key=key)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def subseed(seed: int, index: int) -> int:
    """Stable 63-bit subseed for branch ``index`` of ``seed``: the first word
    of the ``index``-th child of ``SeedSequence(seed).spawn``, shifted right
    by one."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)
