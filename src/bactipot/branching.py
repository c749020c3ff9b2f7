"""Two-type branching process for antibiotic-treated bacterial growth.

Each cell independently dies, survives unchanged, or divides in two at every
generation. Dead cells are tracked alongside live ones because qPCR measures
genome copies, which persist after cell death. The offspring mean is linked
to the antibiotic concentration by a two-parameter dose-response law, and the
expected total count (live plus dead) has closed forms that the estimation
chain relies on.

Conventions used throughout:

- ``mean`` is the expected offspring per live cell, ``p1 + 2*p2`` in [0, 2].
- ``mean_total(dist, n)`` is the expected total count after ``n`` generations
  starting from a single cell.
- All geometric sums are evaluated by Horner recurrences so the ``mean == 1``
  case needs no special-casing and there is no cancellation near it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .errors import CountOverflowError, InvalidParameterError

#: Largest supported population count (63-bit signed range).
MAX_COUNT = (1 << 63) - 1

# A generation at most doubles the total, so totals at or below this bound
# cannot overflow MAX_COUNT within it.
_STEP_SAFE_TOTAL = MAX_COUNT // 2

_PROB_TOL = 1e-12

# Added to a divisor that is zero only where its numerator is zero too: it
# turns 0/0 into 0 and leaves every quotient of normal numbers unchanged.
_TINY = sys.float_info.min


@dataclass(frozen=True)
class OffspringDistribution:
    """Per-cell fate probabilities: die, survive as one, divide in two.

    Attributes:
        p0: Probability of death (no offspring).
        p1: Probability of surviving unchanged (one offspring).
        p2: Probability of dividing (two offspring).
    """

    p0: float
    p1: float
    p2: float

    def __post_init__(self):
        for name in ("p0", "p1", "p2"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0) or math.isnan(p):
                raise InvalidParameterError(f"{name} must lie in [0, 1], got {p!r}")
        total = self.p0 + self.p1 + self.p2
        if abs(total - 1.0) > _PROB_TOL:
            raise InvalidParameterError(
                f"probabilities must sum to 1 within {_PROB_TOL}, got {total!r}"
            )

    @property
    def mean(self) -> float:
        """Expected offspring per cell, ``p1 + 2*p2`` in [0, 2]."""
        return self.p1 + 2.0 * self.p2


@dataclass(frozen=True)
class GrowthParams:
    """Dose-response parameters of the offspring mean curve.

    The offspring mean at concentration ``c`` is ``2 / (1 + alpha * c**beta)``:
    ``alpha`` sets the concentration scale and ``beta`` the steepness.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0) or not (self.beta > 0.0):
            raise InvalidParameterError(
                f"alpha and beta must be positive, got ({self.alpha!r}, {self.beta!r})"
            )


def mean_from_concentration(params: GrowthParams, concentration: float) -> float:
    """Offspring mean at a given antibiotic concentration.

    Evaluates ``2 / (1 + alpha * c**beta)``, which decreases strictly from 2
    (untreated, free doubling) toward 0 as the concentration grows.

    Args:
        params: Dose-response parameters.
        concentration: Antibiotic concentration, >= 0. Zero is permitted and
            returns exactly 2.

    Returns:
        Offspring mean in (0, 2].
    """
    if concentration < 0.0 or math.isnan(concentration):
        raise InvalidParameterError(f"concentration must be >= 0, got {concentration!r}")
    if concentration == 0.0:
        return 2.0
    try:
        scaled = params.alpha * concentration**params.beta
    except OverflowError:
        return 0.0
    return 2.0 / (1.0 + scaled)


def dist_from_mean(mean: float) -> OffspringDistribution:
    """Death-or-divide offspring distribution with the given mean.

    Returns ``(1 - mean/2, 0, mean/2)``, the distribution used for treated
    cultures: a cell never survives unchanged, because an antibiotic either
    kills it or blocks division permanently, and a blocked cell counts as
    dead. The result attains the upper bound of ``mean_total_bounds``.

    Args:
        mean: Target offspring mean in [0, 2].
    """
    _check_mean(mean)
    half = mean / 2.0
    return OffspringDistribution(1.0 - half, 0.0, half)


def mean_total(dist: OffspringDistribution, n_generations: int) -> float:
    """Expected total count after ``n`` generations from one cell.

    Equals ``m**n + p0 * (1 + m + ... + m**(n-1))``: the live part decays or
    grows geometrically while dead cells accumulate at rate ``p0`` per live
    cell. The geometric series is Horner-summed, so the result is exact at
    ``m == 1`` and stable near it.
    """
    _check_generations(n_generations, minimum=0)
    m = dist.mean
    return m**n_generations + dist.p0 * _horner(repeat(1.0, n_generations), m)


def mean_total_from_mean(mean: float, n_generations: int) -> float:
    """Expected total count under the death-or-divide rule, as a function of the mean.

    Equals ``mean_total(dist_from_mean(mean), n)`` and evaluates to
    ``(m/2) * (m**(n-1) + ... + 1) + 1``. On [0, 2] it increases strictly and
    convexly from 1 to ``2**n``, which makes it invertible (see
    ``estimators.invert_mean_total``).
    """
    _check_mean(mean)
    _check_generations(n_generations, minimum=0)
    return _growth_curve(mean, n_generations)


def mean_total_derivative(mean: float, n_generations: int) -> float:
    """Exact derivative of ``mean_total_from_mean`` in the mean.

    Evaluates ``(1/2) * sum_{j=1..n} j * m**(j-1)`` as a Horner-summed
    polynomial. The covariance formulas divide by this quantity, so it is
    computed analytically rather than by finite differences.
    """
    _check_mean(mean)
    _check_generations(n_generations, minimum=1)
    return 0.5 * _horner(range(n_generations, 0, -1), mean)


def mean_total_bounds(mean: float, n_generations: int) -> tuple[float, float]:
    """Sharp bounds on the expected total count at a fixed offspring mean.

    Over all offspring distributions with the given mean, the expected total
    after ``n`` generations lies between ``max(m**n, 1)`` and the
    death-or-divide value ``mean_total_from_mean``. The lower bound is
    attained without deaths (mean above 1, mixing survive/divide) or without
    divisions (mean at most 1, mixing die/survive); the upper bound is
    attained by ``dist_from_mean``, where every loss parks a dead cell in the
    pool. The two coincide at ``mean == 2``.

    Returns:
        ``(lower, upper)`` bounds, both attainable.
    """
    _check_generations(n_generations, minimum=1)
    upper = mean_total_from_mean(mean, n_generations)
    lower = mean**n_generations if mean > 1.0 else 1.0
    return lower, upper


def extinction_probability(dist: OffspringDistribution) -> float:
    """Probability that the live lineage eventually dies out.

    Certain (1) when the offspring mean is at most 1; otherwise the smaller
    root of the generating-function fixed point, which for this three-point
    distribution is ``p0 / p2``.
    """
    if dist.mean <= 1.0:
        return 1.0
    return dist.p0 / dist.p2


def advance(
    alive: np.ndarray,
    dead: np.ndarray,
    p0: np.ndarray | float,
    p1: np.ndarray | float,
    p2: np.ndarray | float,
    n_generations: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance wells of any shape ``n`` generations in lockstep.

    This is the one sampling kernel of the package. ``alive`` and ``dead``
    hold per-well counts; ``p0``, ``p1`` and ``p2`` are per-well fate
    probabilities broadcastable against them, so lanes with different
    offspring means go through in one call. Each generation draws, for every
    well at once,

    - under death-or-divide (every ``p1`` zero): ``D2 ~ Bin(alive, p2)``;
    - otherwise: ``D0 ~ Bin(alive, p0)``, then
      ``D1 ~ Bin(alive - D0, p1 / (p1 + p2))`` and ``D2 = alive - D0 - D1``,

    and moves to ``(D1 + 2*D2, dead + D0)``. Both are the multinomial law of
    the per-cell fates, aggregated.

    Returns:
        ``(alive, dead)`` as new int64 arrays, of the broadcast shape of all
        inputs once a generation has run.

    Raises:
        CountOverflowError: if before some generation the largest live count
            plus the largest dead count exceeds ``MAX_COUNT // 2``, so a
            total could overflow ``MAX_COUNT`` within that generation.
    """
    _check_generations(n_generations, minimum=0)
    alive = np.asarray(alive, dtype=np.int64)
    dead = np.asarray(dead, dtype=np.int64)
    general = np.count_nonzero(p1) > 0
    if general:
        # renormalize away the <=1e-12 slack allowed by OffspringDistribution
        # so that neither binomial ever sees a probability above one
        rest = p1 + p2
        p_die = p0 / (p0 + rest)
        p_stay = p1 / (rest + _TINY)
    for _ in range(n_generations):
        # Python ints, so the sum cannot wrap
        if int(alive.max(initial=0)) + int(dead.max(initial=0)) > _STEP_SAFE_TOTAL:
            raise CountOverflowError(
                f"total count may overflow {MAX_COUNT} in one generation"
            )
        if general:
            d0 = rng.binomial(alive, p_die)
            d1 = rng.binomial(alive - d0, p_stay)
            d2 = alive - d0 - d1
            alive, dead = d1 + 2 * d2, dead + d0
        else:
            d2 = rng.binomial(alive, p2)
            alive, dead = 2 * d2, dead + (alive - d2)
    return alive, dead


def simulate(
    x0: int,
    dist: OffspringDistribution,
    n_generations: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one trajectory through ``advance``, one generation at a time.

    Args:
        x0: Initial number of live cells, in [1, ``MAX_COUNT``].
        dist: Offspring distribution applied at every generation.
        n_generations: Number of steps to take.
        rng: Source of randomness; the trajectory is a deterministic
            function of its state.

    Returns:
        ``(alive, dead)`` int64 arrays of length ``n_generations + 1``,
        indexed by generation, starting from ``(x0, 0)``.
    """
    _check_x0(x0)
    _check_generations(n_generations, minimum=0)
    # empty, so memory is touched one generation at a time, as it is filled
    alive = np.empty(n_generations + 1, dtype=np.int64)
    dead = np.empty_like(alive)
    alive[0], dead[0] = x0, 0
    for g in range(n_generations):
        # one well as 0-d counts: the binomial sampler's fast scalar path
        alive[g + 1], dead[g + 1] = advance(alive[g], dead[g], dist.p0, dist.p1, dist.p2, 1, rng)
    return alive, dead


def simulate_batch(
    x0: int,
    dist: OffspringDistribution | Sequence[OffspringDistribution],
    n_generations: int,
    replicates: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate many independent trajectories in lockstep, in one ``advance`` call.

    Each replicate's law is identical to ``simulate``.

    Args:
        x0: Initial live count shared by every replicate, in [1, ``MAX_COUNT``].
        dist: Offspring distribution of every replicate, or a sequence of
            distributions, one per lane of ``replicates`` wells.
        n_generations: Number of steps to take.
        replicates: Number of independent trajectories per distribution, >= 1.
        rng: Source of randomness.

    Returns:
        ``(alive, dead)`` int64 arrays holding the final generation's counts,
        of shape ``(replicates,)`` for one distribution and
        ``(len(dist), replicates)`` for a sequence.
    """
    _check_x0(x0)
    if replicates < 1:
        raise InvalidParameterError(f"replicates must be >= 1, got {replicates!r}")
    if isinstance(dist, OffspringDistribution):
        shape = (replicates,)
        probs = (dist.p0, dist.p1, dist.p2)
    else:
        shape = (len(dist), replicates)
        table = np.array([(d.p0, d.p1, d.p2) for d in dist], dtype=float).reshape(-1, 3)
        # one contiguous (lanes, 1) column per fate probability: the binomial
        # sampler is markedly slower on strided probabilities
        probs = np.ascontiguousarray(table.T)[..., None]
    alive = np.full(shape, x0, dtype=np.int64)
    return advance(alive, np.zeros_like(alive), *probs, n_generations, rng)


def _growth_curve(m, n_generations: int):
    # mean_total_from_mean without its checks, for callers that hold valid
    # values; float or array m
    return 0.5 * m * _horner(repeat(1.0, n_generations), m) + 1.0


def _horner(coefficients: Iterable[float], x):
    # float or array x: each element sees the scalar operations, in order
    acc = 0.0
    for c in coefficients:
        acc = acc * x + c
    return acc


def _check_mean(mean: float) -> None:
    if not 0.0 <= mean <= 2.0:  # NaN fails every comparison
        raise InvalidParameterError(f"offspring mean must lie in [0, 2], got {mean!r}")


def _check_x0(x0: int) -> None:
    # the one rule for an initial live count, before any array holds it
    if x0 < 1:
        raise InvalidParameterError(f"x0 must be >= 1, got {x0!r}")
    if x0 > MAX_COUNT:
        raise CountOverflowError(f"x0 must be <= {MAX_COUNT}, got {x0!r}")


def _check_generations(n_generations: int, minimum: int) -> None:
    if n_generations < minimum:
        raise InvalidParameterError(
            f"n_generations must be >= {minimum}, got {n_generations!r}"
        )
