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
import operator
import sys
from collections import namedtuple
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import CountOverflowError, InvalidParameterError

if TYPE_CHECKING:
    import numpy as np

#: Largest supported population count (63-bit signed range).
MAX_COUNT = (1 << 63) - 1

# A generation at most doubles the total, so totals at or below this bound
# cannot overflow MAX_COUNT within it.
_STEP_SAFE_TOTAL = MAX_COUNT // 2

_PROB_TOL = 1e-12

# Added to a divisor that is zero only where its numerator is zero too: it
# turns 0/0 into 0 and leaves every quotient of normal numbers unchanged.
_TINY = sys.float_info.min


def _checked_record(fields: str):
    # a namedtuple base for a subclass whose __new__ checks the fields; _make,
    # and so _replace, builds through that __new__ too
    base = namedtuple("_checked_record", fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class OffspringDistribution(_checked_record("p0 p1 p2")):
    """Per-cell fate probabilities: die, survive as one, divide in two.

    Attributes:
        p0: Probability of death (no offspring).
        p1: Probability of surviving unchanged (one offspring).
        p2: Probability of dividing (two offspring).
    """

    __slots__ = ()

    def __new__(cls, p0: float, p1: float, p2: float):
        for name, p in (("p0", p0), ("p1", p1), ("p2", p2)):
            if not (0.0 <= p <= 1.0) or math.isnan(p):
                raise InvalidParameterError(f"{name} must lie in [0, 1], got {p!r}")
        total = p0 + p1 + p2
        if abs(total - 1.0) > _PROB_TOL:
            raise InvalidParameterError(
                f"probabilities must sum to 1 within {_PROB_TOL}, got {total!r}"
            )
        return super().__new__(cls, p0, p1, p2)

    @property
    def mean(self) -> float:
        """Expected offspring per cell, ``p1 + 2*p2`` in [0, 2]."""
        return self.p1 + 2.0 * self.p2


class GrowthParams(_checked_record("alpha beta")):
    """Dose-response parameters of the offspring mean curve.

    The offspring mean at concentration ``c`` is ``2 / (1 + alpha * c**beta)``:
    ``alpha`` sets the concentration scale and ``beta`` the steepness.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float):
        if alpha > 0.0 and beta > 0.0:  # NaN fails every comparison
            return super().__new__(cls, alpha, beta)
        raise InvalidParameterError(f"alpha and beta must be positive, got ({alpha!r}, {beta!r})")


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
    return tuple.__new__(OffspringDistribution, (1.0 - half, 0.0, half))  # valid, by _check_mean


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

    Raises:
        InvalidParameterError: if the mean lies outside [0, 2], ``n`` outside
            [1, 1023], or the slope overflows the floating-point range, as it
            does near ``m = 2`` for ``n >= 1015``.
    """
    _check_mean(mean)
    _check_generations(n_generations, minimum=1)
    slope = _growth_slope(mean, n_generations)
    if not math.isfinite(slope):
        raise InvalidParameterError(
            f"the growth-curve slope at mean {mean!r} over {n_generations} generations "
            "overflows the floating-point range"
        )
    return slope


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
    import numpy as np
    _check_generations(n_generations, minimum=0)
    alive = np.asarray(alive, dtype=np.int64)
    total = alive + np.asarray(dead, dtype=np.int64)  # each generation adds its D2
    general = np.count_nonzero(p1) > 0
    if general:
        # renormalize away the <=1e-12 slack allowed by OffspringDistribution
        # so that neither binomial ever sees a probability above one
        rest = p1 + p2
        p_die = p0 / (p0 + rest)
        p_stay = p1 / (rest + _TINY)
    # bounds on the largest live and dead counts, as Python ints that cannot wrap:
    # a generation at most doubles a live count and adds it to its dead count
    top_alive = top_dead = _STEP_SAFE_TOTAL
    for _ in range(n_generations):
        if top_alive + top_dead > _STEP_SAFE_TOTAL:
            top_alive, top_dead = int(alive.max(initial=0)), int((total - alive).max(initial=0))
            if top_alive + top_dead > _STEP_SAFE_TOTAL:
                raise CountOverflowError(
                    f"total count may overflow {MAX_COUNT} in one generation"
                )
        if general:
            d0 = rng.binomial(alive, p_die)
            d1 = rng.binomial(alive - d0, p_stay)
            d2 = alive - d0 - d1
            alive = d1 + 2 * d2
        else:
            d2 = rng.binomial(alive, p2)
            alive = d2 + d2
        total = total + d2
        top_alive, top_dead = 2 * top_alive, top_dead + top_alive
    return alive, total - alive


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
        n_generations: Number of steps to take, in [0, 1023].
        rng: Source of randomness; the trajectory is a deterministic
            function of its state.

    Returns:
        ``(alive, dead)`` int64 arrays of length ``n_generations + 1``,
        indexed by generation, starting from ``(x0, 0)``.
    """
    import numpy as np
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
        n_generations: Number of steps to take, in [0, 1023].
        replicates: Number of independent trajectories per distribution, >= 1.
        rng: Source of randomness.

    Returns:
        ``(alive, dead)`` int64 arrays holding the final generation's counts,
        of shape ``(replicates,)`` for one distribution and
        ``(len(dist), replicates)`` for a sequence.
    """
    import numpy as np
    _check_x0(x0)
    _check_integer("replicates", replicates, minimum=1)
    if isinstance(dist, OffspringDistribution):
        shape = (replicates,)
        probs = (dist.p0, dist.p1, dist.p2)
    else:
        shape = (len(dist), replicates)
        # one contiguous (lanes, 1) column per fate probability: the binomial
        # sampler is markedly slower on strided probabilities
        probs = np.array(list(zip(*dist)), dtype=float).reshape(3, -1, 1)
    alive = np.full(shape, x0, dtype=np.int64)
    return advance(alive, np.zeros_like(alive), *probs, n_generations, rng)


def _growth_curve(m, n_generations: int):
    # mean_total_from_mean without its checks, for callers that hold valid
    # values; float or array m
    return 0.5 * m * _horner(repeat(1.0, n_generations), m) + 1.0


def _growth_slope(m: float, n_generations: int) -> float:
    # mean_total_derivative without its checks; inf where the slope overflows
    return 0.5 * _horner(range(n_generations, 0, -1), m)


def _horner(coefficients: Iterable[float], x):
    # float or array x: each element sees the scalar operations, in order
    acc = 0.0
    for c in coefficients:
        acc = acc * x + c
    return acc


def _check_mean(mean: float) -> None:
    if not 0.0 <= mean <= 2.0:  # NaN fails every comparison
        raise InvalidParameterError(f"offspring mean must lie in [0, 2], got {mean!r}")


def _check_integer(name: str, value: int, minimum=-math.inf, maximum=math.inf) -> None:
    # the one integer rule, for every count and seed, as operator.index reads
    # one: ints and numpy integers pass, and floats fail, 1e4 too
    try:
        operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None
    if not minimum <= value <= maximum:
        bound = f"be >= {minimum}" if maximum == math.inf else f"lie in [{minimum}, {maximum}]"
        raise InvalidParameterError(f"{name} must {bound}, got {value!r}")


def _check_x0(x0: int) -> None:
    # the one rule for an initial live count, before any array holds it
    _check_integer("x0", x0, minimum=1)
    if x0 > MAX_COUNT:
        raise CountOverflowError(f"x0 must be <= {MAX_COUNT}, got {x0!r}")


def _check_generations(n_generations: int, minimum: int) -> None:
    # the one generation rule: 1023 is the largest n with 2.0**n finite, and
    # every total-count ceiling and inversion needs 2**n as a float
    _check_integer("n_generations", n_generations, minimum, maximum=1023)
