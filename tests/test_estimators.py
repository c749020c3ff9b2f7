"""Estimation chain: inversion, regression, covariance engine, nuisances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bactipot import (
    MAX_COUNT,
    AsymptoticCovariance,
    BactipotError,
    FitResult,
    GrowthParams,
    InsufficientDataError,
    InvalidParameterError,
    MeanEstimate,
    SingularDesignError,
    asymptotic_covariance,
    dist_from_mean,
    estimate_calibration,
    estimate_generations,
    estimate_noise_sd,
    estimate_offspring_mean,
    fit_dose_response,
    invert_mean_total,
    k_factor,
    mean_from_concentration,
    mean_total_from_mean,
    mic,
    round_generations,
    simulate_batch,
    spawn_rng,
)
from bactipot.branching import _growth_curve
from bactipot.estimators import (
    _bisect,
    _invert_totals,
    _covariance_sums,
    _design_sums,
    _fit_line,
    estimate_offspring_means,
    fit_dose_response_rows,
)

LOG2_X0 = math.log2(10**4)

#: Designs that ``measurement.check_grid`` rejects once sorted, one fault each.
BAD_GRIDS = {
    "non-positive": (0.0, 2**-4, 2**-2),
    "infinite": (2**-4, 2**-2, math.inf),
    "duplicate": (2**-4, 2**-4, 2**-2),
    "twin": (2**-5, 2**-5 * (1 + 1e-10), 2**-2),
}


def estimates_from_curve(alpha, beta, grid, jitter=None):
    """MeanEstimate lanes lying exactly on (or jittered off) the true curve."""
    params = GrowthParams(alpha, beta)
    out = []
    for i, c in enumerate(grid):
        m = mean_from_concentration(params, c)
        if jitter is not None:
            m = min(max(m + jitter[i], 1e-9), 2 - 1e-9)
        out.append(
            MeanEstimate(
                concentration=c,
                mu_hat=mean_total_from_mean(m, 10),
                m_hat=m,
                clamped=False,
            )
        )
    return out


class TestEstimateLog2MeanTotal:
    """The Ct model solved for log2 of the total per initial cell.

    ``a - log2(x0) - mean(cts)`` is what ``estimate_generations`` returns and
    what ``estimate_offspring_mean`` clamps and raises to a power of two.
    """

    def test_all_dead_lane(self):
        assert estimate_generations([-LOG2_X0], a_hat=0.0, x0=10**4) == 0.0
        est = estimate_offspring_mean([-LOG2_X0], a=0.0, x0=10**4, n_generations=10)
        assert est.mu_hat == 1.0

    def test_free_growth_lane(self):
        assert estimate_generations([-LOG2_X0 - 10], a_hat=0.0, x0=10**4) == pytest.approx(
            10.0, abs=1e-12
        )
        est = estimate_offspring_mean([-LOG2_X0 - 10], a=0.0, x0=10**4, n_generations=10)
        assert est.mu_hat == pytest.approx(1024.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            estimate_generations([], a_hat=0.0, x0=10**4)
        with pytest.raises(InvalidParameterError):
            estimate_offspring_mean([], a=0.0, x0=10**4, n_generations=10)

    def test_consistency_rate_on_synthetic_lane(self):
        # one lane at the (10, 1) curve, N = 100: the estimate lands within
        # three standard errors of the analytic expected total
        m = mean_from_concentration(GrowthParams(10, 1), 2**-4)
        config_n, x0, sigma, n_reps = 10, 10**4, 0.2, 100
        alive, dead = simulate_batch(x0, dist_from_mean(m), config_n, n_reps, spawn_rng(31))
        rng = spawn_rng(32)
        cts = [
            -math.log2(int(t)) + sigma * float(rng.standard_normal())
            for t in (alive + dead)
        ]
        mu_hat = estimate_offspring_mean(cts, a=0.0, x0=x0, n_generations=config_n).mu_hat
        mu = mean_total_from_mean(m, config_n)
        band = 3 * sigma * math.log(2) * mu / math.sqrt(n_reps)
        assert abs(mu_hat - mu) < band


class TestInvertMeanTotal:
    @pytest.mark.parametrize("mu, n, expected", [(1.0, 10, 0.0), (1024.0, 10, 2.0), (6.0, 10, 1.0)])
    def test_known_points(self, mu, n, expected):
        assert invert_mean_total(mu, n) == pytest.approx(expected, abs=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=300)
    def test_round_trip(self, m, n):
        assert abs(invert_mean_total(mean_total_from_mean(m, n), n) - m) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(InvalidParameterError):
            invert_mean_total(0.5, 10)
        with pytest.raises(InvalidParameterError):
            invert_mean_total(1025.0, 10)


def halving_bisection(mu, n):
    """The textbook form of the inversion: 41 halvings of [0, 2], then the
    midpoint of the last bracket."""
    lo, hi = 0.0, 2.0
    for _ in range(41):
        mid = 0.5 * (lo + hi)
        if mean_total_from_mean(mid, n) < mu:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInvertMeanTotals:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 31, 62, 63, 100, 500, 1023])
    def test_scalar_is_the_textbook_bisection(self, n):
        rng = spawn_rng(402, n)
        interior = np.exp2(rng.uniform(0.0, n, size=40)).tolist()
        for mu in [1.0 + 2.0**-40, 2.0**n * (1 - 2.0**-40), *interior]:
            mu = min(max(mu, 1.0), 2.0**n)
            assert invert_mean_total(mu, n) == halving_bisection(mu, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 31, 62, 63, 100, 500, 1023])
    def test_bit_identical_to_scalar_bisection(self, n):
        # the array bisection and the array inversion of
        # estimate_offspring_means, on totals strictly inside (1, 2**n)
        rng = spawn_rng(401, n)
        interior = np.exp2(rng.uniform(0.0, n, size=502))
        mu = np.clip(interior, math.nextafter(1.0, 2.0), math.nextafter(2.0**n, 1.0))
        expected = [invert_mean_total(float(x), n) for x in mu]
        assert _bisect(mu.reshape(2, -1), n).ravel().tolist() == expected
        assert _invert_totals(mu.reshape(2, -1), n).ravel().tolist() == expected

    @given(st.integers(1, 1023), st.integers(1, 2**41 - 2))
    @settings(max_examples=150, deadline=None)
    def test_lattice_totals_invert_as_the_halvings_do(self, n, k):
        # a total the growth curve takes on the 2**-40 lattice, and its two
        # neighbouring floats: a guess lands on the wrong side of a lattice
        # point most easily here
        at = _growth_curve(k * 2.0**-40, n)
        mus = {
            min(max(mu, math.nextafter(1.0, 2.0)), math.nextafter(2.0**n, 1.0))
            for mu in (math.nextafter(at, 0.0), at, math.nextafter(at, math.inf))
        }
        expected = [halving_bisection(mu, n) for mu in mus]
        assert [invert_mean_total(mu, n) for mu in mus] == expected
        assert _invert_totals(np.array(list(mus)), n).tolist() == expected

    @pytest.mark.parametrize(
        "n, means",
        [
            (n, [1.0 + s * d for s in (-1, 1) for d in (1e-3, 1e-7, 1e-9, 1e-12, 2.0**-40)])
            for n in (1, 2, 10, 62, 1023)
        ]
        + [(1023, [2.0 - k * 2.0**-40 for k in (1, 2, 3, 1000, 2**20)])],
        ids=[f"m~1,n={n}" for n in (1, 2, 10, 62, 1023)] + ["m~2,n=1023"],
    )
    def test_near_one_and_two(self, n, means):
        mus = [1.0 + n / 2, *(_growth_curve(m, n) for m in means)]
        mus = [mu for mu in mus if 1.0 < mu < 2.0**n]
        expected = [halving_bisection(mu, n) for mu in mus]
        assert [invert_mean_total(mu, n) for mu in mus] == expected
        assert _invert_totals(np.array(mus), n).tolist() == expected

    @pytest.mark.parametrize("n", [1, 2, 10, 62, 1023])
    def test_the_guess_lands_in_its_bracket(self, monkeypatch, n):
        # the halvings are a fallback, not the usual route
        from bactipot import estimators

        def unreachable(mu, n):
            raise AssertionError(f"fell back to the halvings at mu={mu!r}")

        monkeypatch.setattr(estimators, "_bisect", unreachable)
        rng = spawn_rng(403, n)
        totals = np.exp2(rng.uniform(0.0, n, size=200))
        mu = np.clip(totals, 1.0 + 2.0**-40, 2.0**n * (1 - 2.0**-40))
        for x in mu.tolist():
            invert_mean_total(x, n)
        _invert_totals(mu, n)

    @pytest.mark.parametrize("guess", [math.nan, 0.0, 2.0, math.inf, 3.0])
    def test_a_failed_check_falls_back_to_the_halvings(self, monkeypatch, guess):
        from bactipot import estimators

        calls = []

        def bisect(mu, n):
            calls.append(mu)
            return _bisect(mu, n)

        def bad_guess(mu, n, xp):
            return guess if xp is math else np.full_like(mu, guess)

        monkeypatch.setattr(estimators, "_bisect", bisect)
        monkeypatch.setattr(estimators, "_guess", bad_guess)
        mus = [1.5, 6.0, 100.0, 1000.0]
        expected = [halving_bisection(mu, 10) for mu in mus]
        assert [invert_mean_total(mu, 10) for mu in mus] == expected
        assert _invert_totals(np.array(mus), 10).tolist() == expected
        assert len(calls) == len(mus) + 1
        mean_ct = -LOG2_X0 - 3.3
        want = estimate_offspring_mean([mean_ct], 0.0, 10**4, 10)
        got = estimate_offspring_means(np.float64(mean_ct), 0.0, 10**4, 10)
        assert got.shape == () and got == want.m_hat == _bisect(want.mu_hat, 10)

    def test_array_estimates_follow_the_scalar_clamp(self):
        # Ct values below, inside and above the feasible range of one lane
        mean_cts = np.array([[-LOG2_X0 + 0.1, -LOG2_X0 - 3.3], [-LOG2_X0 - 11.0, 5000.0]])
        m_hats = estimate_offspring_means(mean_cts, 0.0, 10**4, 10)
        for got, mean_ct in zip(m_hats.ravel(), mean_cts.ravel()):
            est = estimate_offspring_mean([mean_ct], 0.0, 10**4, 10)
            assert got == pytest.approx(est.m_hat, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("mean_ct", [-13.0, -LOG2_X0 - 3.3], ids=["clamped", "interior"])
    def test_zero_dimensional_estimate_equals_the_scalar_one(self, mean_ct):
        got = estimate_offspring_means(np.float64(mean_ct), 0.0, 10**4, 10)
        assert got.shape == ()
        assert got == pytest.approx(
            estimate_offspring_mean([mean_ct], 0.0, 10**4, 10).m_hat, rel=1e-12, abs=1e-12
        )

    def test_overflowing_log_total_clamps_like_the_scalar_estimate(self):
        # a - log2(x0) - mean_ct overflows to inf: no warning, a clamp to m = 2
        mean_ct, a = -1.7976931348623157e308, 9.9792015476736e291
        got = estimate_offspring_means(np.array([mean_ct]), a, 1, 1)
        assert got.tolist() == [estimate_offspring_mean([mean_ct], a, 1, 1).m_hat] == [2.0]

    @pytest.mark.parametrize("n", [1, 10, 1023])
    def test_clamped_totals_give_the_endpoints_without_warnings(self, n):
        # totals clamped to 1 and to 2**n, the largest float power of two at
        # n = 1023, next to an interior one; a warning would fail the test
        got = estimate_offspring_means(np.array([1e300, -LOG2_X0 - 0.5, -1e300]), 0.0, 10**4, n)
        assert got[0] == 0.0 and got[2] == 2.0
        assert got[1] == estimate_offspring_mean([-LOG2_X0 - 0.5], 0.0, 10**4, n).m_hat

    def test_nan_mean_ct_is_refused(self):
        with pytest.raises(InvalidParameterError, match="NaN"):
            estimate_offspring_means(np.array([-LOG2_X0 - 3.3, math.nan]), 0.0, 10**4, 10)
        with pytest.raises(InvalidParameterError, match="NaN"):
            estimate_offspring_means(np.array([math.inf]), math.inf, 10**4, 10)


class TestEstimateOffspringMean:
    def test_noiseless_all_dead(self):
        est = estimate_offspring_mean([-LOG2_X0], a=0.0, x0=10**4, n_generations=10)
        assert est.m_hat == 0.0 and est.mu_hat == 1.0 and not est.clamped

    def test_noiseless_free_growth(self):
        est = estimate_offspring_mean([-LOG2_X0 - 10.0], a=0.0, x0=10**4, n_generations=10)
        assert est.m_hat == pytest.approx(2.0, abs=1e-9) and not est.clamped

    def test_noise_below_floor_clamps(self):
        # a Ct above the all-dead level implies mu < 1; clamp and flag
        cts = [-LOG2_X0 + math.log2(1 / 0.97)]
        est = estimate_offspring_mean(cts, a=0.0, x0=10**4, n_generations=10)
        assert est.clamped and est.mu_hat == 1.0 and est.m_hat == 0.0

    def test_noise_above_ceiling_clamps(self):
        cts = [-LOG2_X0 - 11.0]
        est = estimate_offspring_mean(cts, a=0.0, x0=10**4, n_generations=10)
        assert est.clamped and est.mu_hat == 1024.0 and est.m_hat == 2.0

    def test_records_concentration(self):
        est = estimate_offspring_mean([-LOG2_X0], 0.0, 10**4, 10, concentration=0.25)
        assert est.concentration == 0.25

    def test_absurd_ct_values_clamp_without_overflow(self):
        est = estimate_offspring_mean([-5000.0], a=0.0, x0=10**4, n_generations=10)
        assert est.clamped and est.mu_hat == 1024.0 and est.m_hat == 2.0
        est = estimate_offspring_mean([5000.0], a=0.0, x0=10**4, n_generations=10)
        assert est.clamped and est.mu_hat == 1.0 and est.m_hat == 0.0

    @pytest.mark.parametrize(
        "log2_mu, mu_hat, clamped",
        [
            (-math.inf, 1.0, True),
            (math.nextafter(0.0, -1.0), 1.0, True),
            (-0.0, 1.0, False),
            (0.0, 1.0, False),
            (math.nextafter(0.0, 1.0), 1.0, False),
            (math.nextafter(10.0, 0.0), 2.0 ** math.nextafter(10.0, 0.0), False),
            (10.0, 1024.0, False),
            (math.nextafter(10.0, 11.0), 1024.0, True),
            (math.inf, 1024.0, True),
        ],
    )
    def test_clamp_edges(self, log2_mu, mu_hat, clamped):
        # with x0 = 1 and a Ct of 0 the log2 total is a itself; the clamp
        # flags exactly the values outside [0, n]
        est = estimate_offspring_mean([0.0], a=log2_mu, x0=1, n_generations=10)
        assert (est.mu_hat, est.clamped) == (mu_hat, clamped)
        assert est.m_hat == invert_mean_total(mu_hat, 10)
        assert estimate_offspring_means(np.array([0.0]), log2_mu, 1, 10).tolist() == [est.m_hat]

    def test_nan_log_total_is_refused(self):
        with pytest.raises(InvalidParameterError, match="got nan"):
            estimate_offspring_mean([0.0], a=math.nan, x0=1, n_generations=10)

    def test_generation_count_domain(self):
        with pytest.raises(InvalidParameterError):
            estimate_offspring_mean([-LOG2_X0], 0.0, 10**4, n_generations=0)
        with pytest.raises(InvalidParameterError):
            estimate_offspring_mean([-LOG2_X0], 0.0, 10**4, n_generations=5000)


class TestFitDoseResponse:
    def test_exact_interpolation_recovers_truth(self):
        fit = fit_dose_response(estimates_from_curve(10.0, 1.0, [2**-6, 2**-4, 2**-2]))
        assert fit.alpha_hat == pytest.approx(10.0, rel=1e-10)
        assert fit.beta_hat == pytest.approx(1.0, rel=1e-10)
        assert fit.mic_hat == pytest.approx(0.1, rel=1e-10)
        assert fit.used_concentrations == (2**-6, 2**-4, 2**-2)
        assert fit.excluded == ()

    @given(
        st.floats(min_value=0.05, max_value=80.0),
        st.floats(min_value=0.2, max_value=4.0),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=200)
    def test_exact_interpolation_property(self, alpha, beta, n_points):
        # place lanes so alpha * c**beta spans [1/4, 4]: responses stay
        # strictly interior regardless of the curve's steepness
        grid = [
            mic(alpha, beta) * (4.0 ** ((2 * i / (n_points - 1)) - 1)) ** (1.0 / beta)
            for i in range(n_points)
        ]
        fit = fit_dose_response(estimates_from_curve(alpha, beta, grid))
        assert fit.alpha_hat == pytest.approx(alpha, rel=1e-8)
        assert fit.beta_hat == pytest.approx(beta, rel=1e-8)

    def test_two_points_always_interpolate(self):
        ests = estimates_from_curve(10.0, 1.0, [2**-4, 2**-2], jitter=[0.05, -0.03])
        fit = fit_dose_response(ests)
        for est in ests:
            predicted = mean_from_concentration(
                GrowthParams(fit.alpha_hat, fit.beta_hat), est.concentration
            )
            assert predicted == pytest.approx(est.m_hat, rel=1e-9)

    def test_boundary_lanes_are_excluded(self):
        ests = estimates_from_curve(10.0, 1.0, [2**-6, 2**-4, 2**-2])
        ests.append(MeanEstimate(concentration=8.0, mu_hat=1.0, m_hat=0.0, clamped=True))
        fit = fit_dose_response(ests, concentrations=[2**-6, 2**-4, 2**-2, 8.0])
        assert (8.0, "boundary-zero") in fit.excluded
        assert fit.used_concentrations == (2**-6, 2**-4, 2**-2)

    def test_band_filter_excludes_uninformative_lanes(self):
        grid = [2**-9, 2**-4, 2**-2, 16.0]
        ests = estimates_from_curve(10.0, 1.0, grid)
        fit = fit_dose_response(ests)
        reasons = dict(fit.excluded)
        assert reasons[2**-9] == "outside-band" and reasons[16.0] == "outside-band"

    def test_explicit_subset_overrides_band(self):
        grid = [2**-9, 2**-4, 2**-2]
        fit = fit_dose_response(estimates_from_curve(10.0, 1.0, grid), concentrations=grid)
        assert fit.used_concentrations == tuple(grid)

    def test_flat_response_is_singular(self):
        ests = [
            MeanEstimate(concentration=0.25, mu_hat=2.0562, m_hat=0.6836, clamped=False),
            MeanEstimate(concentration=0.5, mu_hat=2.0562, m_hat=0.6836, clamped=False),
        ]
        with pytest.raises(SingularDesignError):
            fit_dose_response(ests, concentrations=[0.25, 0.5])

    @pytest.mark.parametrize(
        "lanes, message",
        [
            # m = 1 everywhere gives f = log(2/1 - 1) = 0 and a slope of exactly 0
            pytest.param(
                [(0.25, 1.0), (0.5, 1.0), (1.0, 1.0)],
                r"^fitted slope beta_hat 0\.0 is not positive",
                id="flat",
            ),
            # a mean that rises with concentration gives a negative slope
            pytest.param([(0.1, 0.5), (0.2, 1.0)], r"^fitted slope beta_hat -1\.58", id="rising"),
        ],
    )
    def test_exactly_flat_response_is_singular(self, lanes, message):
        ests = [MeanEstimate(c, 6.0, m, clamped=False) for c, m in lanes]
        with pytest.raises(SingularDesignError, match=message):
            fit_dose_response(ests, concentrations=[c for c, _ in lanes])

    def test_underflowing_mic_is_singular(self):
        # alpha 1e10, beta 1e-3: the MIC alpha ** (-1/beta) underflows to 0
        grid = [1.0, 2.0, 4.0]
        with pytest.raises(SingularDesignError):
            fit_dose_response(estimates_from_curve(1e10, 1e-3, grid), concentrations=grid)

    def test_insufficient_data_names_exclusions(self):
        ests = [
            MeanEstimate(concentration=0.5, mu_hat=1.0, m_hat=0.0, clamped=True),
            MeanEstimate(concentration=1.0, mu_hat=1024.0, m_hat=2.0, clamped=True),
        ]
        with pytest.raises(InsufficientDataError, match="boundary"):
            fit_dose_response(ests)

    @given(
        st.floats(min_value=0.05, max_value=50.0),
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=200)
    def test_grid_scaling_equivariance(self, alpha, beta, scale):
        # same responses at rescaled concentrations: slope unchanged, MIC scales
        grid = [mic(alpha, beta) * 2.0**k for k in (-2, -1, 1, 2)]
        base = estimates_from_curve(alpha, beta, grid)
        moved = [
            MeanEstimate(e.concentration * scale, e.mu_hat, e.m_hat, e.clamped) for e in base
        ]
        fit0 = fit_dose_response(base)
        fit1 = fit_dose_response(moved)
        assert fit1.beta_hat == pytest.approx(fit0.beta_hat, rel=1e-9)
        assert fit1.mic_hat == pytest.approx(fit0.mic_hat * scale, rel=1e-9)

    @pytest.mark.parametrize("fault", BAD_GRIDS)
    def test_rejects_a_bad_grid(self, fault):
        estimates = [MeanEstimate(c, 6.0, 1.0, clamped=False) for c in BAD_GRIDS[fault]]
        with pytest.raises(InvalidParameterError):
            fit_dose_response(estimates)


class TestFitDoseResponseRows:
    def test_matches_scalar_fit_row_by_row(self):
        # interior estimates with some lanes pushed to 0 or 2: one boundary
        # lane leaves two usable points, two leave too few
        grid = (2**-6, 2**-4, 2**-2)
        rng = spawn_rng(402)
        m_hats = rng.uniform(0.05, 1.95, size=(400, 3))
        m_hats[rng.random((400, 3)) < 0.3] = 0.0
        m_hats[rng.random((400, 3)) < 0.2] = 2.0
        rows = fit_dose_response_rows(m_hats, grid)
        failed = 0
        for row, ms in zip(rows, m_hats):
            estimates = [
                MeanEstimate(c, mean_total_from_mean(m, 10), m, clamped=False)
                for c, m in zip(grid, ms)
            ]
            try:
                fit = fit_dose_response(estimates, concentrations=grid)
            except (InsufficientDataError, SingularDesignError):
                failed += 1
                assert np.isnan(row).all()
                continue
            expected = (fit.alpha_hat, fit.beta_hat, fit.mic_hat)
            assert row.tolist() == pytest.approx(expected, rel=1e-12)
        assert 0 < failed < len(rows)

    def test_memory_layout_does_not_change_a_bit(self):
        # numpy sums a contiguous axis pairwise from 8 elements on, and a
        # strided one in order; the fit adds its lanes in order either way
        grid = tuple(2.0**k for k in range(-7, 3))
        rng = spawn_rng(403)
        # each row falls with concentration, so nearly every fit has a slope > 0
        m_hats = np.sort(rng.uniform(0.05, 1.95, size=(3000, len(grid))), axis=1)[:, ::-1]
        m_hats[rng.random(m_hats.shape) < 0.1] = 0.0
        by_rows = fit_dose_response_rows(np.ascontiguousarray(m_hats), grid)
        by_lanes = fit_dose_response_rows(np.asfortranarray(m_hats), grid)
        assert by_rows.tobytes() == by_lanes.tobytes()
        assert np.isfinite(by_rows).all(axis=1).mean() > 0.9

    @pytest.mark.parametrize(
        "m_hats, grid",
        [
            # every lane at m = 1 gives f = 0 everywhere and a zero slope
            pytest.param(np.ones((2, 3)), (0.25, 0.5, 1.0), id="flat"),
            # a mean that rises with concentration gives a negative slope
            pytest.param(np.array([[0.5, 1.0]]), (0.1, 0.2), id="rising"),
        ],
    )
    def test_flat_response_fails_like_the_scalar_fit(self, m_hats, grid):
        rows = fit_dose_response_rows(m_hats, grid)
        assert np.isnan(rows).all()

    def test_underflowing_alpha_fails_like_the_scalar_fit(self):
        # at concentrations near 1e300 a steep line puts alpha_hat below the
        # smallest double, and the MIC alpha ** (-1/beta) has no value
        grid = (1e300, 3e300)
        estimates = [MeanEstimate(c, 10.0, m, clamped=False) for c, m in zip(grid, (1.5, 0.5))]
        with pytest.raises(SingularDesignError):
            fit_dose_response(estimates)
        assert np.isnan(fit_dose_response_rows(np.array([[1.5, 0.5]]), grid)).all()

    def test_underflowing_mic_fails_like_the_scalar_fit(self):
        grid = (1.0, 2.0, 4.0)
        m_hats = [e.m_hat for e in estimates_from_curve(1e10, 1e-3, grid)]
        assert np.isnan(fit_dose_response_rows(np.array([m_hats]), grid)).all()


class TestRegressionInputs:
    """The least-squares core: design sums ``(S0, S1, S2, D)`` and the line."""

    def test_needs_two_points(self):
        # a one-lane design is refused, so design-eval exits 1 rather than rank it singular
        with pytest.raises(InsufficientDataError, match="need at least 2 regression points"):
            asymptotic_covariance([0.25], GrowthParams(10, 1), 10, 0.2)

    def test_moments(self):
        ls = [1.0, 2.0, 3.0]
        assert _design_sums(ls, [1.0] * 3, math.fsum) == (3.0, 6.0, 14.0, 3 * 14.0 - 36.0)
        assert _design_sums(ls, [2.0, 1.0, 0.5], math.fsum) == (3.5, 5.5, 10.5, 3.5 * 10.5 - 5.5**2)

    def test_needs_positive_denominator(self):
        # two logs a few ulps apart: S0*S2 - S1**2 rounds to zero
        close = math.nextafter(math.nextafter(700.0, math.inf), math.inf)
        with pytest.raises(SingularDesignError):
            _design_sums([700.0, close], [1.0, 1.0], math.fsum)
        # an array of designs is the caller's to check
        assert (_design_sums([700.0, close], [np.ones(2), np.ones(2)], sum)[3] <= 0.0).all()

    def test_zero_weight_is_a_dropped_lane(self):
        ls = [math.log(c) for c in (2**-6, 2**-4, 2**-3, 2**-2)]
        fs = [1.3, 0.4, -0.2, -0.9]
        kept = [0, 1, 3]
        for total in (math.fsum, sum):
            dropped = _fit_line([ls[i] for i in kept], [fs[i] for i in kept], [1.0] * 3, total)
            assert _fit_line(ls, fs, [1.0, 1.0, 0.0, 1.0], total) == dropped
        # one row per mask, as the batched fit weights its lanes
        masks = np.array([[1, 1, 0, 1], [0, 1, 1, 1]], dtype=bool)
        rows = _fit_line(ls, [np.full(2, f) for f in fs], list(masks.T), sum)
        for r, mask in enumerate(masks):
            lanes = np.flatnonzero(mask)
            dropped = _fit_line([ls[i] for i in lanes], [fs[i] for i in lanes], [1.0] * 3, sum)
            assert [value[r] for value in rows] == list(dropped)


class TestKFactor:
    def test_zero_noise_zero_factor(self):
        params = GrowthParams(10, 1)
        for c in (2**-6, 2**-2, 1.0):
            assert k_factor(c, params, 10, 0.0) == 0.0

    def test_negative_by_construction(self):
        assert k_factor(2**-4, GrowthParams(10, 1), 10, 0.2) < 0.0

    def test_sign_never_reaches_the_variances(self):
        params = GrowthParams(10, 1)
        grid = [2**-6, 2**-4, 2**-2]
        ks = [k_factor(c, params, 10, 0.2) for c in grid]
        ls = [math.log(c) for c in grid]
        flipped = [-k for k in ks]
        assert _covariance_sums(ks, ls, 10.0, 1.0) == _covariance_sums(flipped, ls, 10.0, 1.0)

    def test_boundary_mean_is_singular(self):
        # untreated lane sits at the free-growth boundary
        with pytest.raises(SingularDesignError):
            k_factor(0.0, GrowthParams(10, 1), 10, 0.2)
        # concentration so extreme the mean underflows to zero
        with pytest.raises(SingularDesignError):
            k_factor(1e200, GrowthParams(10, 2), 10, 0.2)

    @pytest.mark.parametrize("n", [0, 1024, 2000])
    def test_generation_count_domain(self, n):
        with pytest.raises(InvalidParameterError):
            k_factor(2**-4, GrowthParams(10, 1), n, 0.2)

    @pytest.mark.parametrize("sigma_eps", [-0.1, math.inf, math.nan])
    def test_noise_sd_must_be_finite_and_non_negative(self, sigma_eps):
        with pytest.raises(InvalidParameterError, match="sigma_eps"):
            k_factor(2**-4, GrowthParams(10, 1), 10, sigma_eps)

    def test_overflowing_gain_is_singular(self):
        # near free growth over 1023 generations the growth-curve slope
        # overflows, which would otherwise turn the gain into zero
        with pytest.raises(SingularDesignError):
            k_factor(2**-12, GrowthParams(10, 1), 1023, 0.2)
        with pytest.raises(SingularDesignError):
            asymptotic_covariance([2**-6, 2**-4, 2**-2], GrowthParams(10, 1), 10, 1e300)


def assert_rounds_to(value, printed):
    """Assert ``value`` rounds to the decimal string ``printed``."""
    target = float(printed)
    if "." in printed:
        place = -len(printed.split(".")[1])
    else:
        place = 0
    assert abs(value - target) <= 0.5 * 10.0**place, f"{value} does not round to {printed}"


class TestAsymptoticCovariance:
    def test_three_point_reference_design(self):
        cov = asymptotic_covariance([2**-6, 2**-4, 2**-2], GrowthParams(10, 1), 10, 0.2)
        assert_rounds_to(cov.sigma2_alpha, "8.63")
        assert_rounds_to(cov.sigma_alphabeta, "0.25")
        assert_rounds_to(cov.sigma2_beta, "0.00767")
        assert_rounds_to(cov.sigma2_theta, "0.00012")

    def test_high_concentration_design(self):
        cov = asymptotic_covariance([2**-2, 2**-1, 1.0], GrowthParams(10, 1), 10, 0.2)
        assert_rounds_to(cov.sigma2_alpha, "112")
        assert_rounds_to(cov.sigma_alphabeta, "9.41")
        assert_rounds_to(cov.sigma2_beta, "0.833")
        assert_rounds_to(cov.sigma2_theta, "0.012")

    def test_steep_curve_design(self):
        cov = asymptotic_covariance([2**-5, 2**-4, 2**-3], GrowthParams(100, 2), 10, 0.2)
        assert_rounds_to(cov.sigma2_alpha, "1431")
        assert_rounds_to(cov.sigma_alphabeta, "5.49")
        assert_rounds_to(cov.sigma2_beta, "0.0216")
        assert_rounds_to(cov.sigma2_theta, "0.0000126")

    def test_zero_noise_gives_zero_covariance(self):
        cov = asymptotic_covariance([2**-6, 2**-4, 2**-2], GrowthParams(10, 1), 10, 0.0)
        assert (
            cov.sigma2_alpha,
            cov.sigma_alphabeta,
            cov.sigma2_beta,
            cov.sigma2_theta,
        ) == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("fault", BAD_GRIDS)
    def test_rejects_a_bad_grid(self, fault):
        with pytest.raises(InvalidParameterError):
            asymptotic_covariance(BAD_GRIDS[fault], GrowthParams(10, 1), 10, 0.2)

    def test_underflowing_mic_is_singular(self):
        # a MIC of 0 would give a zero MIC variance, ranked best by design-eval
        with pytest.raises(SingularDesignError, match="covariance"):
            _covariance_sums([1.0, 1.0, 1.0], [0.0, math.log(2.0), math.log(4.0)], 1e10, 1e-3)
        with pytest.raises(SingularDesignError):
            asymptotic_covariance([1.0, 2.0, 4.0], GrowthParams(1e10, 1e-3), 10, 0.2)

    def test_underflowing_mic_variance_is_singular(self):
        # the MIC 1e-200 is a float, but theta**2 underflows to 0, so each
        # design would get a MIC variance of exactly 0 and tie for best
        params = GrowthParams(1e10, 0.05)
        for design in ([5e-201, 1e-200, 2e-200], [1e-220, 1e-200, 1e-180]):
            with pytest.raises(SingularDesignError, match="covariance"):
                asymptotic_covariance(design, params, 10, 0.2)

    def test_underflowed_mic_divisor_is_singular(self):
        # beta**2 * D**2 is 0.0 in double precision
        params = GrowthParams(1.0, 3.756399507857734e-234)
        with pytest.raises(SingularDesignError, match="covariance"):
            asymptotic_covariance([1.0, 2.0], params, 1, 0.0)

    @staticmethod
    def random_design(rng):
        alpha = float(np.exp(rng.uniform(-1.0, 4.5)))
        beta = float(rng.uniform(0.3, 3.0))
        k = int(rng.integers(2, 7))
        theta = alpha ** (-1.0 / beta)
        offsets = np.sort(rng.uniform(-3.0, 3.0, size=k))
        while np.any(np.diff(offsets) < 1e-3):
            offsets = np.sort(rng.uniform(-3.0, 3.0, size=k))
        grid = [float(theta * 2.0**o) for o in offsets]
        return GrowthParams(alpha, beta), grid

    def test_delta_method_identity(self):
        # the MIC variance equals the quadratic form of the MIC gradient in
        # (alpha, beta) against the parameter covariance, exactly
        rng = np.random.default_rng(7)
        for _ in range(300):
            params, grid = self.random_design(rng)
            cov = asymptotic_covariance(grid, params, 10, 0.2)
            theta = mic(params.alpha, params.beta)
            g_alpha = -theta / (params.alpha * params.beta)
            g_beta = theta * math.log(params.alpha) / params.beta**2
            quadratic = (
                g_alpha**2 * cov.sigma2_alpha
                + 2 * g_alpha * g_beta * cov.sigma_alphabeta
                + g_beta**2 * cov.sigma2_beta
            )
            assert abs(quadratic - cov.sigma2_theta) <= 1e-10 * abs(cov.sigma2_theta)

    def test_cauchy_schwarz_on_random_designs(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            params, grid = self.random_design(rng)
            cov = asymptotic_covariance(grid, params, 10, 0.2)
            bound = cov.sigma2_alpha * cov.sigma2_beta
            assert cov.sigma_alphabeta**2 <= bound * (1 + 1e-12)


class TestNuisanceEstimators:
    def test_calibration_trivials(self):
        assert estimate_calibration([-LOG2_X0], 10**4) == 0.0
        assert estimate_calibration([5.0 - LOG2_X0], 10**4) == pytest.approx(5.0, abs=1e-12)

    def test_calibration_normal_band_coverage(self):
        # a_hat ~ N(a, sigma^2/N): the 3-sigma band holds about 99.7% of the time
        sigma, n_lanes, trials = 0.2, 6, 10_000
        rng = spawn_rng(303)
        draws = rng.standard_normal((trials, n_lanes)) * sigma
        hits = np.abs(draws.mean(axis=1)) < 3 * sigma / math.sqrt(n_lanes)
        assert hits.mean() >= 0.99

    def test_generations_trivials(self):
        # noiseless free growth with n = 10
        cts = [-LOG2_X0 - 10.0]
        assert estimate_generations(cts, a_hat=0.0, x0=10**4) == pytest.approx(10.0, abs=1e-12)
        # all-dead lanes fed in by mistake: estimate collapses to zero
        assert estimate_generations([-LOG2_X0], a_hat=0.0, x0=10**4) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_generations_variance(self):
        # Var(n_hat) = 2 sigma^2 / N when the calibration lanes share N
        sigma, n_reps, trials = 0.2, 3, 10_000
        rng = spawn_rng(304)
        high = rng.standard_normal((trials, n_reps)) * sigma
        low = rng.standard_normal((trials, n_reps)) * sigma
        n_hat = high.mean(axis=1) - low.mean(axis=1)
        target = 2 * sigma**2 / n_reps
        assert abs(n_hat.var(ddof=1) - target) / target < 0.10

    def test_round_generations_half_up(self):
        assert round_generations(9.5) == 10
        assert round_generations(10.49) == 10
        assert round_generations(10.5) == 11

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_round_generations_rejects_non_finite(self, value):
        with pytest.raises(InvalidParameterError, match="finite"):
            round_generations(value)

    def test_overflowing_generation_estimate_is_an_error(self):
        with pytest.raises(InvalidParameterError, match="overflows"):
            estimate_generations([-1.7e308], 1.7e308, 1)

    def test_noise_sd_identical_replicates(self):
        assert estimate_noise_sd([[1.5, 1.5, 1.5]]) == 0.0

    def test_noise_sd_hand_computed(self):
        assert estimate_noise_sd([[0.0, 2.0], [1.0, 3.0]]) == pytest.approx(math.sqrt(2))

    @pytest.mark.parametrize("cts", [[1e200, -1e200], [1e308, 1e308]])
    def test_noise_sd_rejects_overflowing_ct_values(self, cts):
        with pytest.raises(InvalidParameterError, match="too large"):
            estimate_noise_sd([cts])

    def test_calibration_rejects_overflowing_ct_values(self):
        with pytest.raises(InvalidParameterError, match="too large"):
            estimate_calibration([1e308, 1e308], 10**4)

    def test_noise_sd_rejects_a_pooled_sum_that_overflows(self):
        # each lane's sum of squares is finite; their pooled sum is not
        lane = [7e153, -7e153]
        assert estimate_noise_sd([lane]) == pytest.approx(math.sqrt(2) * 7e153)
        with pytest.raises(InvalidParameterError, match="too large"):
            estimate_noise_sd([lane, lane])

    def test_noise_sd_singletons_rejected(self):
        with pytest.raises(InsufficientDataError):
            estimate_noise_sd([[1.0], [2.0]])

    def test_noise_sd_chisquare_coverage(self):
        # 12 groups x 3 replicates = 24 dof; the exact chi-square probability
        # of landing in [0.15, 0.25] at sigma = 0.2 is 0.9182
        sigma, groups, reps, trials = 0.2, 12, 3, 4000
        rng = spawn_rng(305)
        draws = rng.standard_normal((trials, groups, reps)) * sigma
        centered = draws - draws.mean(axis=2, keepdims=True)
        pooled = np.sqrt((centered**2).sum(axis=(1, 2)) / (groups * (reps - 1)))
        coverage = ((pooled > 0.15) & (pooled < 0.25)).mean()
        assert abs(coverage - 0.9182) < 0.02

    def test_noise_sd_matches_vectorized_formula(self):
        rng = spawn_rng(306)
        groups = [list(rng.standard_normal(3) * 0.2) for _ in range(12)]
        centered = [np.asarray(g) - np.mean(g) for g in groups]
        expected = math.sqrt(sum(float((c**2).sum()) for c in centered) / (12 * 2))
        assert estimate_noise_sd(groups) == pytest.approx(expected, rel=1e-12)


class TestMic:
    def test_known_value(self):
        assert mic(10.0, 1.0) == pytest.approx(0.1, rel=1e-15)

    def test_matches_curve_crossing(self):
        params = GrowthParams(71.8, 2.46)
        theta = mic(71.8, 2.46)
        assert mean_from_concentration(params, theta) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "alpha, beta",
        [(1e-300, 1e-300), (0.5, 5e-324)],
        ids=["power-overflows", "subnormal-beta"],
    )
    def test_overflowing_mic_is_an_error(self, alpha, beta):
        with pytest.raises(InvalidParameterError, match="overflows"):
            mic(alpha, beta)

    def test_underflowing_mic_is_an_error(self):
        with pytest.raises(InvalidParameterError, match="underflows"):
            mic(1e10, 1e-3)


#: Any finite double, the domain of every float argument below.
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
ct_lists = st.lists(finite_floats, max_size=5)
inocula = st.integers(min_value=1, max_value=MAX_COUNT)
generation_counts = st.integers(min_value=1, max_value=1023)


def assert_finite_or_package_error(call, *args):
    """``call(*args)`` gives only finite numbers or raises a ``BactipotError``.
    Returns the result, or None if it raised."""
    try:
        result = call(*args)
    except BactipotError:
        return None
    if isinstance(result, MeanEstimate):
        values = [result.mu_hat, result.m_hat]
    elif isinstance(result, FitResult):
        values = [result.alpha_hat, result.beta_hat, result.mic_hat]
    elif isinstance(result, AsymptoticCovariance):
        values = [
            result.sigma2_alpha,
            result.sigma_alphabeta,
            result.sigma2_beta,
            result.sigma2_theta,
            *result.k_factors,
        ]
    else:
        values = np.ravel(result).tolist()
    assert all(math.isfinite(v) for v in values), (args, result)
    return result


class TestPublicEstimatorsAreFiniteOrRaise:
    """Each public estimator, on finite input, returns finite numbers or
    raises a ``BactipotError``; no raw ``OverflowError`` or ``ValueError``.

    ``fit_dose_response_rows`` is left out: it marks a failed row with NaN.
    """

    @given(finite_floats, finite_floats)
    def test_mic(self, alpha, beta):
        assert_finite_or_package_error(mic, alpha, beta)

    @given(finite_floats, generation_counts)
    def test_invert_mean_total(self, mu, n):
        assert_finite_or_package_error(invert_mean_total, mu, n)

    @given(ct_lists, finite_floats, inocula, generation_counts)
    def test_estimate_offspring_mean(self, cts, a, x0, n):
        assert_finite_or_package_error(estimate_offspring_mean, cts, a, x0, n)

    @given(st.lists(finite_floats, max_size=4), finite_floats, inocula, generation_counts)
    @settings(max_examples=25)  # each example runs up to 41 array Horner sweeps of 1023 terms
    def test_estimate_offspring_means(self, mean_cts, a, x0, n):
        mean_cts = np.array(mean_cts, dtype=float)
        assert_finite_or_package_error(estimate_offspring_means, mean_cts, a, x0, n)

    @given(
        st.lists(st.tuples(finite_floats, finite_floats), max_size=5),
        st.none() | st.lists(finite_floats, max_size=3),
    )
    def test_fit_dose_response(self, pairs, subset):
        estimates = [MeanEstimate(c, 1.0, m, False) for c, m in pairs]
        fit = assert_finite_or_package_error(fit_dose_response, estimates, subset)
        if fit is not None:  # a returned fit is a model point: beta > 0, MIC by mic()
            assert fit.beta_hat > 0.0, (pairs, subset, fit)
            assert fit.mic_hat == mic(fit.alpha_hat, fit.beta_hat), (pairs, subset, fit)

    @given(finite_floats, finite_floats, finite_floats, generation_counts, finite_floats)
    def test_k_factor(self, c, alpha, beta, n, sigma_eps):
        assert_finite_or_package_error(
            lambda: k_factor(c, GrowthParams(alpha, beta), n, sigma_eps)
        )

    @given(
        st.lists(finite_floats, max_size=4),
        finite_floats,
        finite_floats,
        generation_counts,
        finite_floats,
    )
    def test_asymptotic_covariance(self, cs, alpha, beta, n, sigma_eps):
        assert_finite_or_package_error(
            lambda: asymptotic_covariance(cs, GrowthParams(alpha, beta), n, sigma_eps)
        )

    @given(ct_lists, inocula)
    def test_estimate_calibration(self, cts, x0):
        assert_finite_or_package_error(estimate_calibration, cts, x0)

    @given(ct_lists, finite_floats, inocula)
    def test_estimate_generations(self, cts, a_hat, x0):
        assert_finite_or_package_error(estimate_generations, cts, a_hat, x0)

    @given(finite_floats)
    def test_round_generations(self, value):
        assert_finite_or_package_error(round_generations, value)

    @given(st.lists(ct_lists, max_size=4))
    def test_estimate_noise_sd(self, groups):
        assert_finite_or_package_error(estimate_noise_sd, groups)
