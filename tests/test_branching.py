"""Branching-process layer: closed forms, bounds, and exact sampling laws."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bactipot import (
    MAX_COUNT,
    CountOverflowError,
    GrowthParams,
    InvalidParameterError,
    MeasurementConfig,
    OffspringDistribution,
    dist_from_mean,
    extinction_probability,
    mean_from_concentration,
    mean_total,
    mean_total_bounds,
    mean_total_derivative,
    mean_total_from_mean,
    simulate,
    simulate_batch,
    spawn_rng,
)
from bactipot.branching import advance

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
    ],
    ids=["simulate", "simulate_batch", "MeasurementConfig"],
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


class TestSimulateBatch:
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
