"""Acceptance suite: every release-gating criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Reference numbers are frozen at 3 significant figures and
cross-checked internally (delta-method identity, covariance validity), so a
regression in any formula shows up as a disagreement here.
"""

import math
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from bactipot import (
    GrowthParams,
    InsufficientDataError,
    McStudyConfig,
    MeasurementConfig,
    OffspringDistribution,
    PipelineConfig,
    asymptotic_covariance,
    fit_dataset,
    invert_mean_total,
    mean_total,
    mean_total_bounds,
    mean_total_derivative,
    mean_total_from_mean,
    mic,
    run_mc_study,
    simulate_experiment,
    spawn_rng,
)
from bactipot.branching import advance

TWO_FOLD_LADDER = tuple(2.0**k for k in range(-7, 5))  # 12 dilutions
SENTINEL = 2.0**-8  # untreated control lane, below the ladder


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def assert_rounds_to(value, printed):
    """``value`` agrees with the reference figure at its printed precision."""
    target = float(printed)
    place = -len(printed.split(".")[1]) if "." in printed else 0
    assert abs(value - target) <= 0.5 * 10.0**place, (
        f"{value} does not round to {printed}"
    )


# ---------------------------------------------------------------------------
# analytic design-variance tables
# ---------------------------------------------------------------------------

# frozen reference rows: design -> (s2_alpha, s_alphabeta, s2_beta, s2_theta)
SHALLOW_CURVE_TABLE = {
    (2**-6, 2**-4, 2**-2): ("8.63", "0.25", "0.00767", "0.00012"),
    (2**-2, 2**-1, 1.0): ("112", "9.41", "0.833", "0.012"),
    (2**-9, 2**-8, 2**-7): ("967", "18.7", "0.364", "0.0298"),
    (2**-8, 2**-7, 2**-1, 1.0): ("58", "1.17", "0.0257", "0.00179"),
    tuple(2.0**-k for k in range(9, -1, -1)): ("23", "0.568", "0.0157", "0.00051"),
}

# the s2_beta entry of the first row is pinned by the delta-method identity
# against its three neighbours; a figure of 0.0124 sometimes quoted for this
# design would violate sigma_alphabeta**2 <= s2_alpha * s2_beta
STEEP_CURVE_TABLE = {
    (2**-6, 2**-4, 2**-2): ("11298", "35.6", "0.124", "0.000364"),
    (2**-5, 2**-4, 2**-3): ("1431", "5.49", "0.0216", "0.0000126"),
    tuple(2.0**-k for k in range(7, 0, -1)): ("42490", "129.3", "0.429", "0.00142"),
}


def check_table(table, params):
    for design, row in table.items():
        cov = asymptotic_covariance(design, params, 10, 0.2)
        assert_rounds_to(cov.sigma2_alpha, row[0])
        assert_rounds_to(cov.sigma_alphabeta, row[1])
        assert_rounds_to(cov.sigma2_beta, row[2])
        assert_rounds_to(cov.sigma2_theta, row[3])
        assert cov.sigma_alphabeta**2 <= cov.sigma2_alpha * cov.sigma2_beta


def test_design_variance_table_shallow_curve():
    with criterion("design-variance table, alpha=10 beta=1 (20 values)"):
        start = time.perf_counter()
        check_table(SHALLOW_CURVE_TABLE, GrowthParams(10.0, 1.0))
        assert time.perf_counter() - start < 1.0


def test_design_variance_table_steep_curve():
    with criterion("design-variance table, alpha=100 beta=2 (12 values)"):
        start = time.perf_counter()
        check_table(STEEP_CURVE_TABLE, GrowthParams(100.0, 2.0))
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# stochastic estimator validation study
# ---------------------------------------------------------------------------

# frozen reference study, 1000 repetitions on the (2^-6, 2^-4, 2^-2) design:
# N -> (mean alpha, mean beta, mean mic, scaled var alpha, scaled cov,
#       scaled var beta, scaled var mic)
VALIDATION_STUDY_ROWS = {
    3: (10.359, 1.004, 0.0998, 12.95, 0.325, 0.00891, 0.000121),
    10: (10.106, 1.002, 0.1, 9.27, 0.262, 0.00789, 0.000116),
    50: (10.03, 1.0005, 0.1, 9.3, 0.265, 0.008, 0.000124),
    100: (9.999, 0.9999, 0.1, 8.83, 0.258, 0.008, 0.000117),
}


def test_monte_carlo_estimator_validation():
    with criterion("Monte Carlo estimator validation (1000 runs x 4 N values)"):
        start = time.perf_counter()
        for n_reps, row in VALIDATION_STUDY_ROWS.items():
            config = McStudyConfig(
                params=GrowthParams(10.0, 1.0),
                grid=(2**-6, 2**-4, 2**-2),
                measurement=MeasurementConfig(
                    a=0.0, sigma_eps=0.2, x0=10_000, n_generations=10, replicates=n_reps
                ),
                n_measurements=1000,
                seed=20260808 + n_reps,
            )
            report = run_mc_study(config)
            assert report.failures == 0
            assert abs(report.mean_alpha - row[0]) / row[0] < 0.05
            assert abs(report.mean_beta - row[1]) / row[1] < 0.05
            assert abs(report.mean_theta - row[2]) / row[2] < 0.05
            if n_reps >= 50:
                assert abs(report.emp_var_alpha - row[3]) / row[3] < 0.15
                assert abs(report.emp_cov_alphabeta - row[4]) / row[4] < 0.15
                assert abs(report.emp_var_beta - row[5]) / row[5] < 0.15
                assert abs(report.emp_var_theta - row[6]) / row[6] < 0.15
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"study took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# growth-curve inversion property suite
# ---------------------------------------------------------------------------


def test_growth_curve_inversion_suite():
    with criterion("inversion suite (round trip, bounds, derivative; 10^4 each)"):
        rng = np.random.default_rng(20260808)

        for _ in range(10_000):
            m = float(rng.uniform(0.0, 2.0))
            n = int(rng.integers(1, 21))
            assert abs(invert_mean_total(mean_total_from_mean(m, n), n) - m) < 1e-9

        for _ in range(10_000):
            p = rng.dirichlet([1.0, 1.0, 1.0])
            dist = OffspringDistribution(float(p[0]), float(p[1]), float(1 - p[0] - p[1]))
            n = int(rng.integers(1, 21))
            lower, upper = mean_total_bounds(dist.mean, n)
            value = mean_total(dist, n)
            slack = 1e-9 * max(1.0, abs(value))
            assert lower - slack <= value <= upper + slack

        h = 1e-6
        for _ in range(10_000):
            m = float(rng.uniform(0.05, 1.95))
            n = int(rng.integers(1, 21))
            fd = (mean_total_from_mean(m + h, n) - mean_total_from_mean(m - h, n)) / (2 * h)
            exact = mean_total_derivative(m, n)
            assert abs(exact - fd) <= 1e-6 * abs(exact)


# ---------------------------------------------------------------------------
# delta-method identity
# ---------------------------------------------------------------------------


def random_design(rng):
    alpha = float(np.exp(rng.uniform(-1.0, 4.5)))
    beta = float(rng.uniform(0.3, 3.0))
    k = int(rng.integers(2, 7))
    offsets = np.sort(rng.uniform(-3.0, 3.0, size=k))
    while np.any(np.diff(offsets) < 1e-3):
        offsets = np.sort(rng.uniform(-3.0, 3.0, size=k))
    grid = [float(mic(alpha, beta) * 2.0**o) for o in offsets]
    return GrowthParams(alpha, beta), grid


def test_mic_variance_delta_identity():
    with criterion("delta-method identity on 10^3 random designs"):
        rng = np.random.default_rng(31415)
        for _ in range(1000):
            params, grid = random_design(rng)
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


# ---------------------------------------------------------------------------
# one-generation step distribution: exact and empirical oracle
# ---------------------------------------------------------------------------


def aggregate_step_law(alive, probs):
    """Exact law of (next alive, dead increment) via multinomial splits."""
    out = {}
    fprobs = [Fraction(p) for p in probs]
    for d0 in range(alive + 1):
        for d1 in range(alive + 1 - d0):
            d2 = alive - d0 - d1
            coef = math.factorial(alive) // (
                math.factorial(d0) * math.factorial(d1) * math.factorial(d2)
            )
            pr = coef * fprobs[0] ** d0 * fprobs[1] ** d1 * fprobs[2] ** d2
            key = (d1 + 2 * d2, d0)
            out[key] = out.get(key, Fraction(0)) + pr
    return out


def per_individual_step_law(alive, probs):
    """Exact law by brute-force enumeration of every cell's fate."""
    out = {(0, 0): Fraction(1)}
    fprobs = [Fraction(p) for p in probs]
    for _ in range(alive):
        nxt = {}
        for (a, d), weight in out.items():
            for fate, pr in enumerate(fprobs):
                # fate 0 adds one dead cell; fates 1 and 2 add offspring
                key = (a, d + 1) if fate == 0 else (a + fate, d)
                nxt[key] = nxt.get(key, Fraction(0)) + weight * pr
        out = nxt
    return out


def test_step_distribution_small_instance_oracle():
    with criterion("one-step law: exact match to enumeration, 3-sigma empirical"):
        probs = (0.3, 0.15, 0.55)
        for alive in range(1, 9):
            law = aggregate_step_law(alive, probs)
            oracle = per_individual_step_law(alive, probs)
            tv = sum(
                abs(law.get(k, Fraction(0)) - oracle.get(k, Fraction(0)))
                for k in set(law) | set(oracle)
            ) / 2
            assert tv == 0, f"alive={alive}: total-variation distance {tv}"

        # empirical check of the sampler itself at alive = 8
        n_samples = 100_000
        law = aggregate_step_law(8, probs)
        dist = OffspringDistribution(*probs)
        rng = spawn_rng(20260808, 6)
        # one generation of n_samples independent wells, in one advance call
        wells = np.full(n_samples, 8)
        alive, dead = advance(wells, np.zeros_like(wells), dist.p0, dist.p1, dist.p2, 1, rng)
        counts = Counter(zip(alive.tolist(), dead.tolist()))
        for key, exact in law.items():
            p = float(exact)
            band = 3.0 * math.sqrt(p * (1.0 - p) / n_samples)
            freq = counts.get(key, 0) / n_samples
            assert abs(freq - p) <= band, f"outcome {key}: {freq} vs {p} (band {band})"


# ---------------------------------------------------------------------------
# end-to-end pipeline coverage
# ---------------------------------------------------------------------------


def synthesize_ladder(params, seed, untreated=False):
    config = MeasurementConfig(a=20.0, sigma_eps=0.2, x0=10_000, n_generations=10, replicates=3)
    return simulate_experiment(
        params,
        TWO_FOLD_LADDER,
        config,
        spawn_rng(seed[0], seed[1]),
        untreated_lane=SENTINEL if untreated else None,
    )


def test_end_to_end_interval_coverage():
    with criterion("end-to-end coverage: alpha within 3 sigma/sqrt(N) in >= 90% of 500"):
        truth = GrowthParams(10.0, 1.0)
        pipeline = PipelineConfig(high_c_threshold=2.0, low_c_choice=2**-7, x0=10_000)
        hits = 0
        runs = 500
        for s in range(runs):
            dataset = synthesize_ladder(truth, (99, s))
            result = fit_dataset(dataset, pipeline)
            # the reference band: the design actually used, evaluated at the
            # true parameters and noise level
            cov = asymptotic_covariance(result.fit.used_concentrations, truth, 10, 0.2)
            band = 3.0 * math.sqrt(cov.sigma2_alpha / 3.0)
            hits += abs(result.fit.alpha_hat - truth.alpha) <= band
        print(f"  coverage {hits}/{runs}")
        assert hits >= 0.90 * runs


# ---------------------------------------------------------------------------
# pipeline recovery at the reference fitted-parameter scenarios
# ---------------------------------------------------------------------------

# two dose-response regimes mirroring published susceptibility fits: a
# shallow bacteriostatic-like curve and a steep bactericidal-like curve,
# each with the lane choices a practitioner would make for it
RECOVERY_SCENARIOS = {
    "shallow (alpha=9.1, beta=1.12)": (
        GrowthParams(9.1, 1.12),
        (2**-5, 2**-4, 2**-2, 2**-1),
    ),
    "steep (alpha=71.8, beta=2.46)": (
        GrowthParams(71.8, 2.46),
        (2**-4, 2**-3, 2**-2),
    ),
}


def test_pipeline_recovery_reference_scenarios():
    with criterion("pipeline recovery: all three parameters in-band in >= 90% of 500"):
        runs = 500
        for label, (truth, fit_lanes) in RECOVERY_SCENARIOS.items():
            pipeline = PipelineConfig(
                high_c_threshold=1.0,
                low_c_choice=SENTINEL,
                x0=10_000,
                fit_concentrations=fit_lanes,
            )
            theta = mic(truth.alpha, truth.beta)
            hits = 0
            failures = 0
            for s in range(runs):
                dataset = synthesize_ladder(truth, (1234, s), untreated=True)
                try:
                    result = fit_dataset(dataset, pipeline)
                except InsufficientDataError:
                    failures += 1
                    continue
                cov = result.covariance
                assert cov is not None
                ok_alpha = abs(result.fit.alpha_hat - truth.alpha) <= 3 * math.sqrt(
                    cov.sigma2_alpha / 3
                )
                ok_beta = abs(result.fit.beta_hat - truth.beta) <= 3 * math.sqrt(
                    cov.sigma2_beta / 3
                )
                ok_theta = abs(result.fit.mic_hat - theta) <= 3 * math.sqrt(
                    cov.sigma2_theta / 3
                )
                hits += ok_alpha and ok_beta and ok_theta
            print(f"  {label}: {hits}/{runs} in-band, {failures} fit failures")
            assert hits >= 0.90 * runs
