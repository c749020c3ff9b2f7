"""Reproducible random-stream derivation.

Every stochastic routine in the package consumes an explicit
``numpy.random.Generator``. Replicated work (Monte Carlo measurements,
parallel trajectories) derives one child stream per task from a master seed
and the task index, so results are identical however the tasks are ordered
or spread over threads, as a Monte Carlo study spreads its blocks.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

from .branching import _check_integer

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Derive a generator from a master seed and an index path.

    The same ``(seed, *key)`` always yields the same stream; distinct keys
    yield independent streams. Negative seeds are reduced modulo 2**64.

    Args:
        seed: Master seed, any integer (numpy's too), interpreted as 64-bit.
        *key: Zero or more non-negative task indices, e.g. a replication
            index, mixed into the stream identity.

    Returns:
        A freshly seeded ``numpy.random.Generator``.

    Raises:
        InvalidParameterError: if the seed or a key index is not an integer,
            or a key index is negative.
    """
    _check_integer("seed", seed)
    for index in key:
        _check_integer("key index", index, minimum=0)
    import numpy as np
    return np.random.default_rng(
        np.random.SeedSequence(entropy=operator.index(seed) & _MASK64, spawn_key=key)
    )
