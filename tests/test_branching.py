"""Branching-process layer: closed forms, bounds, and exact sampling laws."""

import math
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bactipot import (
    MAX_COUNT,
    BactipotError,
    CountOverflowError,
    GrowthParams,
    InvalidParameterError,
    McStudyConfig,
    MeasurementConfig,
    OffspringDistribution,
    PipelineConfig,
    dist_from_mean,
    estimate_calibration,
    estimate_generations,
    estimate_offspring_mean,
    extinction_probability,
    invert_mean_total,
    k_factor,
    mean_from_concentration,
    mean_total,
    mean_total_bounds,
    mean_total_derivative,
    mean_total_from_mean,
    log_spaced_grid,
    run_mc_study,
    simulate,
    simulate_batch,
    simulate_experiment,
    spawn_rng,
)
from bactipot.branching import advance
from bactipot.estimators import estimate_offspring_means

means = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
generations = st.integers(min_value=1, max_value=20)


def random_offspring(rng):
    """A valid offspring distribution with uniformly random simplex weights."""
    p = rng.dirichlet([1.0, 1.0, 1.0])
    return OffspringDistribution(float(p[0]), float(p[1]), float(1.0 - p[0] - p[1]))


# ---------------------------------------------------------------------------
# dose-response curve and offspring distributions
# ---------------------------------------------------------------------------


class TestMeanFromConcentration:
    def test_at_mic_the_mean_is_one(self):
        # c = alpha**(-1/beta) forces the denominator to 2
        assert mean_from_concentration(GrowthParams(10, 1), 0.1) == pytest.approx(1.0, abs=1e-15)

    def test_zero_concentration_is_free_growth(self):
        assert mean_from_concentration(GrowthParams(10, 1), 0.0) == 2.0

    def test_hand_evaluated_point(self):
        # 2 / (1 + 10/64) = 64/37
        assert mean_from_concentration(GrowthParams(10, 1), 2**-6) == pytest.approx(
            64 / 37, rel=1e-15
        )

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=1e-6, max_value=1e3),
        st.floats(min_value=1.0001, max_value=4.0),
    )
    def test_strictly_decreasing(self, alpha, beta, c, factor):
        params = GrowthParams(alpha, beta)
        low, high = mean_from_concentration(params, c), mean_from_concentration(
            params, c * factor
        )
        assert high <= low
        # strict once clear of the float-saturated free-growth plateau
        assume(low < 2.0 - 1e-9)
        assert high < low

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            GrowthParams(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            GrowthParams(10.0, -1.0)
        with pytest.raises(InvalidParameterError):
            mean_from_concentration(GrowthParams(10, 1), -0.5)


class TestDistFromMean:
    @pytest.mark.parametrize(
        "m, expected",
        [(2.0, (0.0, 0.0, 1.0)), (0.0, (1.0, 0.0, 0.0)), (1.0, (0.5, 0.0, 0.5))],
    )
    def test_endpoints_and_midpoint(self, m, expected):
        dist = dist_from_mean(m)
        assert (dist.p0, dist.p1, dist.p2) == expected

    @given(means)
    def test_mean_round_trip(self, m):
        assert dist_from_mean(m).mean == pytest.approx(m, abs=1e-12)

    # one mean check serves all three; the dist_from_mean cases keep bare ids
    @pytest.mark.parametrize(
        "check, m",
        [
            pytest.param(check, m, id=f"{prefix}{m}")
            for prefix, check in [
                ("", dist_from_mean),
                ("mean_total_from_mean-", lambda m: mean_total_from_mean(m, 10)),
                ("mean_total_derivative-", lambda m: mean_total_derivative(m, 10)),
            ]
            for m in [-0.1, 2.1, math.nan]
        ],
    )
    def test_rejects_out_of_range(self, check, m):
        with pytest.raises(InvalidParameterError, match="offspring mean"):
            check(m)


class TestOffspringDistribution:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(InvalidParameterError):
            OffspringDistribution(0.5, 0.5, 0.5)
        with pytest.raises(InvalidParameterError):
            OffspringDistribution(-0.1, 0.6, 0.5)


# ---------------------------------------------------------------------------
# expected totals: closed forms, derivative, bounds
# ---------------------------------------------------------------------------


def exact_mean_total_dp(dist, n_generations):
    """Expected total count from one cell via exact dynamic programming.

    Tracks the full joint distribution of (alive, total) with rational
    arithmetic, enumerating multinomial splits per state. Only feasible for
    tiny populations; used as an independent oracle.
    """
    probs = (Fraction(dist.p0), Fraction(dist.p1), Fraction(dist.p2))
    states = {(1, 1): Fraction(1)}
    for _ in range(n_generations):
        nxt = {}
        for (alive, total), weight in states.items():
            if alive == 0:
                key = (0, total)
                nxt[key] = nxt.get(key, Fraction(0)) + weight
                continue
            for d0 in range(alive + 1):
                for d1 in range(alive + 1 - d0):
                    d2 = alive - d0 - d1
                    coef = (
                        math.factorial(alive)
                        // (math.factorial(d0) * math.factorial(d1) * math.factorial(d2))
                    )
                    pr = weight * coef * probs[0] ** d0 * probs[1] ** d1 * probs[2] ** d2
                    key = (d1 + 2 * d2, total + d2)
                    nxt[key] = nxt.get(key, Fraction(0)) + pr
        states = nxt
    return float(sum(total * weight for (_, total), weight in states.items()))


class TestMeanTotal:
    def test_all_die_immediately(self):
        assert mean_total(OffspringDistribution(1, 0, 0), 10) == 1.0

    def test_pure_doubling(self):
        assert mean_total(OffspringDistribution(0, 0, 1), 10) == 1024.0

    def test_against_dynamic_programming_oracle(self):
        dist = OffspringDistribution(0.25, 0.25, 0.5)
        oracle = exact_mean_total_dp(dist, 3)
        assert oracle == pytest.approx(2.90625, rel=1e-12)
        assert mean_total(dist, 3) == pytest.approx(oracle, rel=1e-12)

    @given(means, st.integers(min_value=0, max_value=20))
    @settings(max_examples=200)
    def test_matches_death_or_divide_form(self, m, n):
        via_dist = mean_total(dist_from_mean(m), n)
        direct = mean_total_from_mean(m, n)
        assert via_dist == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestMeanTotalFromMean:
    @pytest.mark.parametrize("m, n, expected", [(1.0, 10, 6.0), (2.0, 10, 1024.0), (0.0, 10, 1.0)])
    def test_known_values(self, m, n, expected):
        assert mean_total_from_mean(m, n) == expected

    @given(means, generations)
    def test_range(self, m, n):
        value = mean_total_from_mean(m, n)
        assert 1.0 <= value <= 2.0**n


class TestMeanTotalDerivative:
    def test_at_one(self):
        # (1/2) * (1 + 2 + ... + 10)
        assert mean_total_derivative(1.0, 10) == 27.5

    def test_at_zero(self):
        assert mean_total_derivative(0.0, 10) == 0.5

    @given(st.floats(min_value=0.05, max_value=1.95), generations)
    @settings(max_examples=300)
    def test_matches_central_finite_difference(self, m, n):
        h = 1e-6
        fd = (mean_total_from_mean(m + h, n) - mean_total_from_mean(m - h, n)) / (2 * h)
        assert mean_total_derivative(m, n) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("m, n", [(2.0, 1023), (1.999, 1015)])
    def test_overflowing_slope_is_invalid(self, m, n):
        # 2.0**1023 is finite, but the slope sums j * m**(j-1) up to j = n
        with pytest.raises(InvalidParameterError, match="slope .* overflows"):
            mean_total_derivative(m, n)


class TestMeanTotalBounds:
    @pytest.mark.parametrize(
        "m, n, expected",
        [
            (1.0, 10, (1.0, 6.0)),
            (2.0, 10, (1024.0, 1024.0)),
            (1.25, 3, (1.953125, 3.3828125)),
        ],
    )
    def test_known_values(self, m, n, expected):
        assert mean_total_bounds(m, n) == pytest.approx(expected, rel=1e-12)

    def test_bounds_hold_for_random_distributions(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            dist = random_offspring(rng)
            n = int(rng.integers(1, 21))
            lower, upper = mean_total_bounds(dist.mean, n)
            value = mean_total(dist, n)
            slack = 1e-9 * max(1.0, abs(value))
            assert lower - slack <= value <= upper + slack

    def test_bounds_attained(self):
        # upper: death-or-divide; lower: no deaths (m >= 1) or no divisions (m <= 1)
        for m in (0.3, 1.0, 1.6):
            n = 7
            lower, upper = mean_total_bounds(m, n)
            assert mean_total(dist_from_mean(m), n) == pytest.approx(upper, rel=1e-12)
            if m >= 1.0:
                attains = OffspringDistribution(0.0, 2.0 - m, m - 1.0)
            else:
                attains = OffspringDistribution(1.0 - m, m, 0.0)
            assert mean_total(attains, n) == pytest.approx(lower, rel=1e-12, abs=1e-12)


class TestExtinctionProbability:
    def test_pure_doubling_never_dies(self):
        assert extinction_probability(OffspringDistribution(0, 0, 1)) == 0.0

    def test_critical_dies_out(self):
        assert extinction_probability(OffspringDistribution(0.5, 0, 0.5)) == 1.0

    def test_supercritical_smaller_root(self):
        # independent oracle: iterate the generating function from 0 to its
        # smallest fixed point
        dist = OffspringDistribution(0.25, 0, 0.75)
        q = 0.0
        for _ in range(200):
            q = dist.p0 + dist.p1 * q + dist.p2 * q * q
        assert q == pytest.approx(1 / 3, abs=1e-12)
        assert extinction_probability(dist) == pytest.approx(q, abs=1e-12)


@st.composite
def offspring_distributions(draw):
    """Any valid law: two cut points split [0, 1] into (p0, p1, p2)."""
    low, high = sorted(draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(2))
    return OffspringDistribution(low, high - low, 1.0 - high)


#: Generation counts on both sides of the rule's range [minimum, 1023].
any_generations = st.integers(min_value=-5, max_value=3000)
any_means = st.one_of(means, st.floats())


def assert_finite_or_package_error(call, *args):
    """``call(*args)`` gives only finite numbers or raises a ``BactipotError``."""
    try:
        result = call(*args)
    except BactipotError:
        return
    assert all(math.isfinite(v) for v in np.ravel(result)), (args, result)


class TestClosedFormsAreFiniteOrRaise:
    """Each exported closed form returns finite numbers or raises a
    ``BactipotError``, for any generation count; never a raw
    ``OverflowError`` or an ``inf``.
    """

    @given(st.one_of(offspring_distributions(), means.map(dist_from_mean)), any_generations)
    @settings(max_examples=750)
    def test_mean_total(self, dist, n):
        assert_finite_or_package_error(mean_total, dist, n)

    @given(any_means, any_generations)
    @settings(max_examples=750)
    def test_mean_total_from_mean(self, m, n):
        assert_finite_or_package_error(mean_total_from_mean, m, n)

    @given(any_means, any_generations)
    @settings(max_examples=750)
    def test_mean_total_bounds(self, m, n):
        assert_finite_or_package_error(mean_total_bounds, m, n)

    @given(any_means, any_generations)
    @example(2.0, 1023)
    @settings(max_examples=750)
    def test_mean_total_derivative(self, m, n):
        assert_finite_or_package_error(mean_total_derivative, m, n)

    @given(offspring_distributions())
    @settings(max_examples=750)
    def test_extinction_probability(self, dist):
        assert_finite_or_package_error(extinction_probability, dist)


# ---------------------------------------------------------------------------
# sampling: one generation, trajectories, batches
# ---------------------------------------------------------------------------


def advance_one(alive, dead, dist, rng):
    """One generation of ``advance`` from one well's counts, as Python ints."""
    a, d = advance(alive, dead, dist.p0, dist.p1, dist.p2, 1, rng)
    return int(a), int(d)


class TestStep:
    """One generation step of the process, as a one-generation ``advance`` call."""

    def test_empty_population_is_absorbing(self):
        out = advance_one(0, 5, OffspringDistribution(0.2, 0.3, 0.5), spawn_rng(1))
        assert out == (0, 5)

    def test_deterministic_doubling(self):
        out = advance_one(7, 2, OffspringDistribution(0, 0, 1), spawn_rng(1))
        assert out == (14, 2)

    def test_all_die(self):
        out = advance_one(7, 2, OffspringDistribution(1, 0, 0), spawn_rng(1))
        assert out == (0, 9)

    def test_parity_and_conservation(self):
        # with p1 = 0 the live count is always even after a generation, the
        # dead count never decreases, and the total never shrinks
        rng = spawn_rng(7)
        dist = dist_from_mean(1.3)
        alive, dead = 999, 0
        for _ in range(50):
            nxt_alive, nxt_dead = advance_one(alive, dead, dist, rng)
            assert nxt_alive % 2 == 0
            assert nxt_dead >= dead
            assert nxt_alive + nxt_dead >= alive + dead
            alive, dead = nxt_alive, nxt_dead

    def test_overflow_guard(self):
        with pytest.raises(CountOverflowError):
            advance_one(1 << 62, 0, OffspringDistribution(0, 0, 1), spawn_rng(0))


class TestSimulate:
    def test_all_die_keeps_total(self):
        alive, dead = simulate(1, OffspringDistribution(1, 0, 0), 3, spawn_rng(3))
        assert alive.dtype == dead.dtype == np.int64
        assert alive.shape == dead.shape == (4,)
        assert (alive + dead).tolist() == [1, 1, 1, 1]

    def test_pure_doubling_total(self):
        alive, dead = simulate(10**4, OffspringDistribution(0, 0, 1), 10, spawn_rng(3))
        assert alive[-1] + dead[-1] == 10_240_000

    def test_starts_at_inoculum(self):
        alive, dead = simulate(42, dist_from_mean(1.5), 5, spawn_rng(3))
        assert (alive[0], dead[0]) == (42, 0)
        assert len(alive) == len(dead) == 6

    def test_deterministic_given_seed(self):
        a = simulate(100, dist_from_mean(1.2), 8, spawn_rng(11))
        b = simulate(100, dist_from_mean(1.2), 8, spawn_rng(11))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize(
        "dist", [dist_from_mean(1.73), OffspringDistribution(0.2, 0.3, 0.5)], ids=["dd", "general"]
    )
    def test_records_one_generation_advance_calls(self, dist):
        # generation g + 1 is one advance call on generation g's counts
        alive, dead = simulate(1000, dist, 12, spawn_rng(17))
        rng = spawn_rng(17)
        expected = [(1000, 0)]
        for _ in range(12):
            expected.append(advance_one(*expected[-1], dist, rng))
        assert list(zip(alive.tolist(), dead.tolist())) == expected

    def test_overflow_is_an_error(self):
        with pytest.raises(CountOverflowError):
            simulate(1 << 62, OffspringDistribution(0, 0, 1), 2, spawn_rng(0))


@pytest.mark.parametrize(
    "run",
    [
        lambda x0: simulate(x0, dist_from_mean(1.5), 0, spawn_rng(0)),
        lambda x0: simulate_batch(x0, dist_from_mean(1.5), 0, 2, spawn_rng(0)),
        lambda x0: MeasurementConfig(x0=x0),
        lambda x0: PipelineConfig(high_c_threshold=1.0, low_c_choice=0.5, x0=x0),
        lambda x0: estimate_offspring_mean([0.0], 0.0, x0, 10),
        lambda x0: estimate_calibration([0.0], x0),
        lambda x0: estimate_generations([0.0], 0.0, x0),
    ],
    ids=[
        "simulate",
        "simulate_batch",
        "MeasurementConfig",
        "PipelineConfig",
        "estimate_offspring_mean",
        "estimate_calibration",
        "estimate_generations",
    ],
)
class TestInoculumRange:
    def test_below_one_is_invalid(self, run):
        with pytest.raises(InvalidParameterError):
            run(0)

    def test_above_max_count_overflows(self, run):
        # 2**70 does not fit an int64 array; the check comes before any array
        with pytest.raises(CountOverflowError):
            run(1 << 70)

    def test_max_count_is_accepted(self, run):
        run(MAX_COUNT)


#: Every layer that takes a generation count, with the least count it accepts.
#: The closed forms run at m = 2, where 2.0**1024 would overflow. The slope
#: runs at m = 1.5: at m = 2 it overflows from n = 1015 on.
GENERATION_COUNT_USERS = {
    "mean_total": (0, lambda n: mean_total(dist_from_mean(2.0), n)),
    "mean_total_from_mean": (0, lambda n: mean_total_from_mean(2.0, n)),
    "mean_total_derivative": (1, lambda n: mean_total_derivative(1.5, n)),
    "mean_total_bounds": (1, lambda n: mean_total_bounds(2.0, n)),
    "advance": (0, lambda n: advance(np.ones(2), np.zeros(2), 0.5, 0.0, 0.5, n, spawn_rng(0))),
    "simulate": (0, lambda n: simulate(1, dist_from_mean(0.5), n, spawn_rng(0))),
    "simulate_batch": (0, lambda n: simulate_batch(1, dist_from_mean(0.5), n, 2, spawn_rng(0))),
    "MeasurementConfig": (1, lambda n: MeasurementConfig(n_generations=n)),
    "invert_mean_total": (1, lambda n: invert_mean_total(1.5, n)),
    "estimate_offspring_mean": (1, lambda n: estimate_offspring_mean([-14.0], 0.0, 10**4, n)),
    "estimate_offspring_means": (
        1, lambda n: estimate_offspring_means(np.array([-14.0]), 0.0, 10**4, n)
    ),
    "k_factor": (1, lambda n: k_factor(2**-4, GrowthParams(10, 1), n, 0.2)),
}


@pytest.mark.parametrize("name", GENERATION_COUNT_USERS)
class TestGenerationRange:
    """One rule, ``minimum <= n <= 1023``, holds in every layer: 1023 is the
    largest n with ``2.0**n`` finite."""

    def test_below_the_minimum_is_invalid(self, name):
        minimum, run = GENERATION_COUNT_USERS[name]
        with pytest.raises(InvalidParameterError, match=rf"must lie in \[{minimum}, 1023\]"):
            run(minimum - 1)

    def test_past_1023_is_invalid(self, name):
        _, run = GENERATION_COUNT_USERS[name]
        with pytest.raises(InvalidParameterError, match="n_generations must lie in"):
            run(1024)

    def test_the_range_ends_are_accepted(self, name):
        minimum, run = GENERATION_COUNT_USERS[name]
        run(minimum)
        run(1023)


def tiny_study(**overrides):
    fields = dict(params=GrowthParams(10, 1), grid=[0.25, 0.5], measurement=MeasurementConfig(),
                  n_measurements=2, seed=0)
    return McStudyConfig(**{**fields, **overrides})


#: Each integer parameter, by a call that takes it, with the name its
#: messages use: two is valid for every one of them.
INTEGER_USERS = {
    "simulate-x0": ("x0", lambda v: simulate(v, dist_from_mean(2.0), 2, spawn_rng(0))),
    "simulate_batch-x0": (
        "x0", lambda v: simulate_batch(v, dist_from_mean(2.0), 2, 3, spawn_rng(0))
    ),
    "simulate_batch-replicates": (
        "replicates", lambda v: simulate_batch(1, dist_from_mean(2.0), 2, v, spawn_rng(0))
    ),
    "simulate_experiment-x0": ("x0", lambda v: simulate_experiment(
        GrowthParams(10, 1), [0.25], MeasurementConfig(x0=v), spawn_rng(0))),
    "MeasurementConfig-n_generations": (
        "n_generations", lambda v: MeasurementConfig(n_generations=v)
    ),
    "MeasurementConfig-replicates": ("replicates", lambda v: MeasurementConfig(replicates=v)),
    "PipelineConfig-x0": ("x0", lambda v: PipelineConfig(2.0, 2**-7, v)),
    "estimate_calibration-x0": ("x0", lambda v: estimate_calibration([-14.0], v)),
    "mean_total_from_mean": ("n_generations", lambda v: mean_total_from_mean(1.0, v)),
    "invert_mean_total": ("n_generations", lambda v: invert_mean_total(3.0, v)),
    "estimate_offspring_mean": (
        "n_generations", lambda v: estimate_offspring_mean([-14.0], 0.0, 10**4, v)
    ),
    "k_factor": ("n_generations", lambda v: k_factor(2**-4, GrowthParams(10, 1), v, 0.2)),
    "McStudyConfig-n_measurements": ("n_measurements", lambda v: tiny_study(n_measurements=v)),
    "McStudyConfig-seed": ("seed", lambda v: tiny_study(seed=v)),
    "run_mc_study-workers": ("workers", lambda v: run_mc_study(tiny_study(), workers=v)),
    "log_spaced_grid-points": ("points", lambda v: log_spaced_grid(1, 2, v)),
    "spawn_rng-seed": ("seed", lambda v: spawn_rng(v)),
    "spawn_rng-key": ("key index", lambda v: spawn_rng(1, 0, v)),
}


@pytest.mark.parametrize("case", INTEGER_USERS)
def test_integer_parameters_take_integers_only(case):
    # one rule, operator.index's: a float is refused even when it is integral
    name, run = INTEGER_USERS[case]
    for value in (2.5, 2.0, 1e4):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            run(value)
    run(2)
    run(np.int64(2))


def test_spawn_rng_reduces_a_negative_seed_and_refuses_a_negative_key():
    assert spawn_rng(-1).integers(2**62) == spawn_rng(2**64 - 1).integers(2**62)
    with pytest.raises(InvalidParameterError, match=r"^key index must be >= 0, got -1$"):
        spawn_rng(1, -1)


class TestSimulateBatch:
    def test_replicates_below_one_are_invalid(self):
        with pytest.raises(InvalidParameterError, match="replicates"):
            simulate_batch(1, dist_from_mean(1.5), 2, 0, spawn_rng(0))

    def test_deterministic_and_shaped(self):
        alive1, dead1 = simulate_batch(100, dist_from_mean(1.4), 6, 50, spawn_rng(5))
        alive2, dead2 = simulate_batch(100, dist_from_mean(1.4), 6, 50, spawn_rng(5))
        assert alive1.shape == dead1.shape == (50,)
        assert np.array_equal(alive1, alive2) and np.array_equal(dead1, dead2)

    def test_monte_carlo_mean_matches_expectation(self):
        # sample mean of total/x0 within 3 standard errors of the analytic mean
        m = 1.7297
        x0, n, reps = 10**4, 10, 1000
        alive, dead = simulate_batch(x0, dist_from_mean(m), n, reps, spawn_rng(99))
        ratios = (alive + dead) / x0
        expected = mean_total_from_mean(m, n)
        se = ratios.std(ddof=1) / math.sqrt(reps)
        assert abs(ratios.mean() - expected) < 3 * se

    def test_monte_carlo_mean_general_distribution(self):
        dist = OffspringDistribution(0.2, 0.35, 0.45)
        x0, n, reps = 10**4, 8, 1000
        alive, dead = simulate_batch(x0, dist, n, reps, spawn_rng(100))
        ratios = (alive + dead) / x0
        expected = mean_total(dist, n)
        se = ratios.std(ddof=1) / math.sqrt(reps)
        assert abs(ratios.mean() - expected) < 4 * se

    def test_supercritical_dead_live_ratio(self):
        # surviving supercritical trajectories settle at dead/alive near
        # p0 / (m - 1); medians over survivors land within 10%
        m = 1.5
        dist = dist_from_mean(m)
        alive, dead = simulate_batch(1, dist, 20, 2000, spawn_rng(42))
        survivors = alive > 0
        assert survivors.sum() > 1000
        ratio = np.median(dead[survivors] / alive[survivors])
        target = dist.p0 / (m - 1.0)
        assert abs(ratio - target) / target < 0.10

    def test_one_lane_per_distribution(self):
        # a sequence of laws runs as lanes of one call; a general law among
        # them sends every lane through the two-binomial step
        dists = [dist_from_mean(0.6), OffspringDistribution(0.2, 0.35, 0.45), dist_from_mean(1.9)]
        x0, n, reps = 10**4, 8, 1000
        alive, dead = simulate_batch(x0, dists, n, reps, spawn_rng(101))
        assert alive.shape == dead.shape == (3, reps)
        ratios = (alive + dead) / x0
        se = ratios.std(axis=1, ddof=1) / math.sqrt(reps)
        expected = [mean_total(d, n) for d in dists]
        assert (np.abs(ratios.mean(axis=1) - expected) < 4 * se).all()

    def test_single_lane_sequence_matches_the_plain_call(self):
        lane_alive, lane_dead = simulate_batch(100, [dist_from_mean(1.4)], 6, 50, spawn_rng(5))
        alive, dead = simulate_batch(100, dist_from_mean(1.4), 6, 50, spawn_rng(5))
        assert np.array_equal(lane_alive[0], alive) and np.array_equal(lane_dead[0], dead)

    def test_low_mean_long_run_never_overflows(self):
        # x0 * 2**80 is far beyond the count range, but a mean of 0.1 never
        # lets a total grow, so the run must not be refused up front
        alive, dead = simulate_batch(1000, dist_from_mean(0.1), 80, 5, spawn_rng(7))
        assert (alive + dead >= 1000).all() and (alive + dead <= 1000 * 2**80).all()

    def test_overflow_guard_fires_at_the_same_generation(self):
        # pure doubling from 2**60: two generations reach 2**62 safely, and
        # the third is refused because 2**62 could double past MAX_COUNT
        doubling = OffspringDistribution(0, 0, 1)
        alive, dead = simulate_batch(2**60, doubling, 2, 3, spawn_rng(0))
        assert alive.tolist() == [2**62] * 3 and dead.tolist() == [0] * 3
        with pytest.raises(CountOverflowError):
            simulate_batch(2**60, doubling, 3, 3, spawn_rng(0))


class TestAdvance:
    @staticmethod
    def assert_lane_means(alive, dead, x0, expected):
        ratios = (alive + dead) / x0
        se = ratios.std(axis=-1, ddof=1) / math.sqrt(ratios.shape[-1])
        assert (np.abs(ratios.mean(axis=-1) - expected) < 3 * se).all()

    def test_death_or_divide_lanes_with_different_means(self):
        means = np.array([0.2, 0.9, 1.0, 1.45, 1.9])
        x0, n, reps = 1000, 8, 2000
        alive = np.full((len(means), reps), x0)
        half = means[:, None] / 2
        alive, dead = advance(alive, np.zeros_like(alive), 1 - half, 0.0, half, n, spawn_rng(31))
        assert alive.shape == dead.shape == (len(means), reps)
        self.assert_lane_means(
            alive, dead, x0, [mean_total_from_mean(float(m), n) for m in means]
        )

    def test_general_lanes_with_different_laws(self):
        dists = [
            OffspringDistribution(0.2, 0.35, 0.45),
            OffspringDistribution(0.5, 0.4, 0.1),
            OffspringDistribution(0.05, 0.6, 0.35),
        ]
        x0, n, reps = 1000, 6, 2000
        p0, p1, p2 = (np.array([[getattr(d, f)] for d in dists]) for f in ("p0", "p1", "p2"))
        alive = np.full((len(dists), reps), x0)
        alive, dead = advance(alive, np.zeros_like(alive), p0, p1, p2, n, spawn_rng(32))
        self.assert_lane_means(alive, dead, x0, [mean_total(d, n) for d in dists])

    def test_overflow_guard_sees_counts_near_the_limit(self):
        # live plus dead is 2**63 here, one past the int64 range
        with pytest.raises(CountOverflowError):
            advance(np.array([2**62]), np.array([2**62]), 0.0, 0.0, 1.0, 1, spawn_rng(0))

    @pytest.mark.parametrize(
        "alive, dead, probs, refused",
        [
            ([2**60] * 5, [0] * 5, (0.0, 0.0, 1.0), True),
            ([2**59] * 5, [0] * 5, (0.05, 0.0, 0.95), True),
            ([2**58] * 5, [0] * 5, (0.1, 0.2, 0.7), True),
            # the bounds pass the limit while the counts stay far below it
            ([2**61] * 5, [0] * 5, (0.75, 0.0, 0.25), False),
            # one well doubles and the other dies: the largest live and dead
            # counts sit in different wells and both grow
            ([2**60] * 2, [0, 2**61 - 1], ([0.0, 1.0], 0.0, [1.0, 0.0]), True),
        ],
        ids=["m=2", "death-or-divide", "general", "low-mean", "split-wells"],
    )
    def test_overflow_guard_matches_a_check_before_every_generation(
        self, alive, dead, probs, refused
    ):
        # one generation per call reads the real maxima before every
        # generation; a whole run must stop before the same one, having made
        # the same draws, or run through to the same counts
        n = 40
        probs = tuple(np.asarray(p) for p in probs)
        start = (np.array(alive, dtype=np.int64), np.array(dead, dtype=np.int64))
        stepwise = spawn_rng(41)
        alive, dead = start
        ran = 0
        try:
            while ran < n:
                alive, dead = advance(alive, dead, *probs, 1, stepwise)
                ran += 1
        except CountOverflowError:
            pass
        assert (ran < n) == refused
        whole = spawn_rng(41)
        if refused:
            with pytest.raises(CountOverflowError):
                advance(*start, *probs, n, whole)
        else:
            whole_alive, whole_dead = advance(*start, *probs, n, whole)
            assert whole_alive.tolist() == alive.tolist() and whole_dead.tolist() == dead.tolist()
        assert whole.bit_generator.state == stepwise.bit_generator.state
        shorter = advance(*start, *probs, ran, spawn_rng(41))
        assert shorter[0].tolist() == alive.tolist() and shorter[1].tolist() == dead.tolist()

    def test_inputs_are_left_alone(self):
        alive = np.full(4, 50)
        dead = np.zeros(4, dtype=np.int64)
        advance(alive, dead, 0.3, 0.0, 0.7, 5, spawn_rng(33))
        assert alive.tolist() == [50] * 4 and dead.tolist() == [0] * 4


class TestStepDistributionExact:
    """The aggregate multinomial step equals per-individual sampling exactly."""

    @staticmethod
    def aggregate_law(alive, probs):
        out = {}
        fprobs = [Fraction(p) for p in probs]
        for d0 in range(alive + 1):
            for d1 in range(alive + 1 - d0):
                d2 = alive - d0 - d1
                coef = (
                    math.factorial(alive)
                    // (math.factorial(d0) * math.factorial(d1) * math.factorial(d2))
                )
                pr = coef * fprobs[0] ** d0 * fprobs[1] ** d1 * fprobs[2] ** d2
                key = (d1 + 2 * d2, d0)
                out[key] = out.get(key, Fraction(0)) + pr
        return out

    @staticmethod
    def per_individual_law(alive, probs):
        out = {}
        fprobs = [Fraction(p) for p in probs]
        for fates in product((0, 1, 2), repeat=alive):
            pr = Fraction(1)
            for f in fates:
                pr *= fprobs[f]
            key = (sum(f for f in fates if f > 0), sum(1 for f in fates if f == 0))
            out[key] = out.get(key, Fraction(0)) + pr
        return out

    @pytest.mark.parametrize("alive", [1, 2, 4, 6])
    def test_total_variation_zero(self, alive):
        probs = (0.3, 0.15, 0.55)
        law_a = self.aggregate_law(alive, probs)
        law_b = self.per_individual_law(alive, probs)
        tv = sum(
            abs(law_a.get(k, Fraction(0)) - law_b.get(k, Fraction(0)))
            for k in set(law_a) | set(law_b)
        ) / 2
        assert tv == 0
