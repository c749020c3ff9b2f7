"""Study drivers: Monte Carlo reports, design tables, pipeline fits."""

import json
import math
import os
import re
import sys
import threading

import pytest

from bactipot import (
    asymptotic_covariance,
    DesignEvaluation,
    GrowthParams,
    InsufficientDataError,
    InvalidParameterError,
    McStudyConfig,
    MeasurementConfig,
    PipelineConfig,
    SingularDesignError,
    evaluate_designs,
    fit_dataset,
    log_spaced_grid,
    mean_from_concentration,
    mean_total_from_mean,
    mic,
    run_mc_study,
    simulate_experiment,
    spawn_rng,
)
from bactipot import harness
from bactipot.harness import MC_BLOCK
from helpers import plate

REFERENCE_DESIGN = (2**-6, 2**-4, 2**-2)


def study_config(**overrides):
    base = dict(
        params=GrowthParams(10.0, 1.0),
        grid=REFERENCE_DESIGN,
        measurement=MeasurementConfig(
            a=0.0, sigma_eps=0.2, x0=10_000, n_generations=10, replicates=3
        ),
        n_measurements=50,
        seed=1,
    )
    base.update(overrides)
    return McStudyConfig(**base)


class TestRunMcStudy:
    def test_report_is_deterministic(self):
        a = run_mc_study(study_config())
        b = run_mc_study(study_config())
        assert a == b

    @staticmethod
    def on_cpus(monkeypatch, cpus):
        # the one lookup of the CPUs a study may use; absent on some platforms
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    def test_parallel_matches_serial(self, monkeypatch):
        # five blocks, the last one short, so threads share out uneven work;
        # eight CPUs cap the pool at five threads, more than a small host has cores,
        # and a short switch interval interleaves them as often as it can
        config = study_config(n_measurements=MC_BLOCK * 4 + 13)
        states = [repr(spawn_rng(config.seed, b).bit_generator.state) for b in range(5)]
        reports, threads = [], []
        synthesize = harness.synthesize_plates

        def recorded(means, measurement, count, rng):
            threads.append(threading.current_thread())
            # the first blocks out wait for each other, so each is on its own thread
            if states.index(repr(rng.bit_generator.state)) < together.parties:
                together.wait()
            return synthesize(means, measurement, count, rng)

        monkeypatch.setattr(harness, "synthesize_plates", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 3, 8):
                self.on_cpus(monkeypatch, cpus)
                together = threading.Barrier(min(cpus, 5), timeout=60)
                threads.clear()
                reports.append(run_mc_study(config))
                assert len(threads) == 5 and len(set(threads)) == min(cpus, 5)
        finally:
            sys.setswitchinterval(interval)
        assert all(report == reports[0] for report in reports)
        first, *rest = (json.dumps(r.to_dict()) for r in reports)
        assert all(text == first for text in rest)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_each_block_thread_is_held_to_one_cpu(self, monkeypatch):
        # each worker holds itself to one CPU; the caller, which runs no block,
        # ends the study with the CPU set it started with
        allowed = os.sched_getaffinity(0)
        held = []
        synthesize = harness.synthesize_plates

        def recorded(*args):
            held.append(os.sched_getaffinity(0))
            return synthesize(*args)

        monkeypatch.setattr(harness, "synthesize_plates", recorded)
        run_mc_study(study_config(n_measurements=MC_BLOCK * 4 + 13))
        assert os.sched_getaffinity(0) == allowed
        if len(allowed) == 1:
            assert held == [allowed] * 5
        else:
            assert len(held) == 5 and all(len(cpus) == 1 and cpus <= allowed for cpus in held)

    @pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
        reason="fewer than 2 usable CPUs",
    )
    def test_the_callers_cpu_set_is_left_alone(self, monkeypatch):
        # read from inside every block: the caller is never held to one CPU
        caller = threading.get_native_id()
        allowed = os.sched_getaffinity(caller)
        seen = []
        synthesize = harness.synthesize_plates

        def recorded(*args):
            seen.append(os.sched_getaffinity(caller))
            return synthesize(*args)

        monkeypatch.setattr(harness, "synthesize_plates", recorded)
        run_mc_study(study_config(n_measurements=MC_BLOCK * 4 + 13))
        assert seen == [allowed] * 5

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_the_lowest_failing_block_raises(self, monkeypatch, cpus):
        # blocks 2 and 3 of five fail; whichever threads run them, block 2's
        # error comes out, and no thread is left running
        config = study_config(n_measurements=MC_BLOCK * 4 + 13)
        states = [repr(spawn_rng(config.seed, b).bit_generator.state) for b in range(5)]
        synthesize = harness.synthesize_plates

        def failing(means, measurement, count, rng):
            block = states.index(repr(rng.bit_generator.state))
            if block in (2, 3):
                raise InvalidParameterError(f"block {block}")
            return synthesize(means, measurement, count, rng)

        monkeypatch.setattr(harness, "synthesize_plates", failing)
        self.on_cpus(monkeypatch, cpus)
        before = threading.active_count()
        with pytest.raises(InvalidParameterError, match="^block 2$"):
            run_mc_study(config)
        assert threading.active_count() == before

    def test_the_fit_passes_change_no_bit(self, monkeypatch):
        # one pass of whole blocks and a short one after it; one pass per
        # block, as the blocks once fit their own rows, gives the same bytes
        chunk = harness._FIT_CHUNK
        config = study_config(n_measurements=chunk + 13)
        passes = []
        estimate = harness.estimate_offspring_means

        def recorded(mean_cts, *args):
            passes.append(len(mean_cts))
            return estimate(mean_cts, *args)

        monkeypatch.setattr(harness, "estimate_offspring_means", recorded)
        chunked = json.dumps(run_mc_study(config).to_dict())
        assert passes == [chunk, 13]
        passes.clear()
        monkeypatch.setattr(harness, "_FIT_CHUNK", MC_BLOCK)
        per_block = json.dumps(run_mc_study(config).to_dict())
        assert passes == [MC_BLOCK] * (chunk // MC_BLOCK) + [13]
        assert chunked == per_block

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("also_failing", [(), (3,)], ids=["nan-only", "and-block-3"])
    def test_the_rows_are_inverted_after_every_block_ran(self, monkeypatch, cpus, also_failing):
        # block 1 synthesizes a NaN Ct, which only the inversion refuses: every
        # block still runs, and the inversion's error comes out after the join,
        # unless a block's synthesis raised, which then wins
        config = study_config(n_measurements=MC_BLOCK * 4 + 13)
        states = [repr(spawn_rng(config.seed, b).bit_generator.state) for b in range(5)]
        ran = []
        synthesize = harness.synthesize_plates

        def poisoned(means, measurement, count, rng):
            block = states.index(repr(rng.bit_generator.state))
            ran.append(block)
            if block in also_failing:
                raise InvalidParameterError(f"block {block}")
            cts = synthesize(means, measurement, count, rng)
            if block == 1:
                cts[0, 0, 0] = math.nan
            return cts

        monkeypatch.setattr(harness, "synthesize_plates", poisoned)
        self.on_cpus(monkeypatch, cpus)
        before = threading.active_count()
        message = "^block 3$" if also_failing else re.escape("a - log2(x0) - mean_ct is NaN for some lane")
        with pytest.raises(InvalidParameterError, match=message):
            run_mc_study(config)
        if also_failing:  # every block below the failing one ran
            assert {0, 1, 2, 3} <= set(ran)
        else:
            assert sorted(ran) == [0, 1, 2, 3, 4]
        assert threading.active_count() == before

    def test_a_moment_past_the_float_range_raises_no_warning(self):
        # at alpha = beta = 0.05 some fitted MICs reach ~1e271, whose squared errors overflow
        report = run_mc_study(study_config(params=GrowthParams(0.05, 0.05), seed=0))
        assert not math.isfinite(report.emp_var_theta) and math.isfinite(report.emp_var_alpha)

    def test_worker_count_is_validated(self):
        with pytest.raises(InvalidParameterError):
            run_mc_study(study_config(n_measurements=5), workers=0)

    def test_fewer_than_two_measurements_are_invalid(self):
        with pytest.raises(InvalidParameterError, match="n_measurements"):
            study_config(n_measurements=1)

    def test_grid_is_validated(self):
        with pytest.raises(InvalidParameterError):
            study_config(grid=(2**-4, 2**-6))
        with pytest.raises(InvalidParameterError, match="same lane"):
            study_config(grid=(2**-5, 2**-5 * (1 + 1e-10)))
        study_config(grid=(2**-5, 2**-5 * (1 + 1e-6)))

    def test_noiseless_study_recovers_parameters(self):
        # with zero Ct noise the only variability left is branching noise,
        # which scales like 1/sqrt(x0); at x0 = 10^6 the refits sit on top of
        # the truth and the scaled variances are orders below the noisy case
        config = study_config(
            measurement=MeasurementConfig(
                a=0.0, sigma_eps=0.0, x0=10**6, n_generations=10, replicates=3
            ),
            n_measurements=30,
        )
        report = run_mc_study(config)
        assert report.failures == 0
        assert report.mean_alpha == pytest.approx(10.0, rel=2e-2)
        assert report.mean_beta == pytest.approx(1.0, rel=2e-2)
        assert report.mean_theta == pytest.approx(0.1, rel=2e-2)
        assert report.theoretical.sigma2_alpha == 0.0
        noisy = run_mc_study(study_config(n_measurements=30)).emp_var_alpha
        assert report.emp_var_alpha < 1e-2 * noisy

    def test_failures_are_counted_not_raised(self):
        # two nearly-dead lanes with heavy noise: many measurements clamp a
        # lane to the boundary, losing the second regression point
        config = study_config(
            grid=(0.5, 1.0),
            n_measurements=40,
            measurement=MeasurementConfig(
                a=0.0, sigma_eps=1.0, x0=100, n_generations=10, replicates=2
            ),
        )
        report = run_mc_study(config)
        assert 0 < report.failures < 40
        assert report.n_measurements == 40
        assert math.isfinite(report.mean_alpha)

    def test_moments_track_the_asymptotics(self):
        # a modest study at N = 100 already lands near the exact covariance
        config = study_config(
            measurement=MeasurementConfig(
                a=0.0, sigma_eps=0.2, x0=10_000, n_generations=10, replicates=100
            ),
            n_measurements=300,
            seed=5,
        )
        report = run_mc_study(config)
        assert report.failures == 0
        assert report.mean_alpha == pytest.approx(10.0, rel=0.02)
        assert report.emp_var_alpha == pytest.approx(report.theoretical.sigma2_alpha, rel=0.30)
        assert report.emp_var_beta == pytest.approx(report.theoretical.sigma2_beta, rel=0.30)

    def test_a_design_out_of_range_fails_before_any_plate_is_synthesized(self, monkeypatch):
        # this design's exact covariance overflows; the study raises at once
        # rather than after simulating every block
        def unreachable(*args):
            raise AssertionError("synthesize_plates ran")

        monkeypatch.setattr("bactipot.harness.synthesize_plates", unreachable)
        config = study_config(
            params=GrowthParams(1e10, 0.05), grid=(1e-220, 1e-200, 1e-180), n_measurements=5000
        )
        with pytest.raises(SingularDesignError, match="floating-point range"):
            run_mc_study(config)

    def test_to_dict_round_trips_fields(self):
        report = run_mc_study(study_config(n_measurements=5))
        payload = report.to_dict()
        assert payload["n_measurements"] == 5
        assert set(payload["theoretical"]) == {
            "sigma2_alpha",
            "sigma_alphabeta",
            "sigma2_beta",
            "sigma2_theta",
            "k_factors",
        }


class TestEvaluateDesigns:
    def test_reference_design_wins(self):
        designs = [
            REFERENCE_DESIGN,
            (2**-2, 2**-1, 1.0),
            (2**-9, 2**-8, 2**-7),
            (2**-8, 2**-7, 2**-1, 1.0),
            tuple(2.0**-k for k in range(9, -1, -1)),
        ]
        rows = evaluate_designs(designs, GrowthParams(10, 1), 10, 0.2)
        assert [row.best for row in rows] == [True, False, False, False, False]
        best = rows[0].covariance.sigma2_theta
        assert all(
            row.covariance.sigma2_theta > best for row in rows[1:] if row.covariance
        )

    def test_singular_design_is_marked_not_fatal(self):
        # second design saturates the curve at zero mean
        rows = evaluate_designs(
            [REFERENCE_DESIGN, (1e200, 2e200)], GrowthParams(10, 2), 10, 0.2
        )
        assert rows[0].covariance is not None and rows[1].covariance is None
        assert [row.best for row in rows] == [True, False]

    def test_first_of_equal_designs_is_best(self):
        rows = evaluate_designs([REFERENCE_DESIGN] * 2, GrowthParams(10, 1), 10, 0.2)
        assert rows[0].covariance == rows[1].covariance
        assert [row.best for row in rows] == [True, False]
        assert DesignEvaluation._fields == ("design", "covariance", "best")

    def test_zero_noise_rows_are_zero(self):
        rows = evaluate_designs([REFERENCE_DESIGN], GrowthParams(10, 1), 10, 0.0)
        cov = rows[0].covariance
        assert (cov.sigma2_alpha, cov.sigma2_beta, cov.sigma2_theta) == (0.0, 0.0, 0.0)


def synthetic_dataset(
    alpha=10.0,
    beta=1.0,
    a=20.0,
    sigma_eps=0.2,
    x0=10_000,
    seed=0,
    replicates=3,
    untreated_lane=None,
):
    params = GrowthParams(alpha, beta)
    grid = [2.0**k for k in range(-7, 5)]
    config = MeasurementConfig(
        a=a, sigma_eps=sigma_eps, x0=x0, n_generations=10, replicates=replicates
    )
    return simulate_experiment(
        params, grid, config, spawn_rng(seed), untreated_lane=untreated_lane
    )


class TestFitDataset:
    def test_noiseless_recovery(self):
        # noiseless data whose calibration lanes are fully suppressed and
        # whose control lane doubles exactly: the nuisance stages recover
        # their targets exactly, and the fit recovers the curve up to the
        # branching fluctuation of the interior lanes (~1/sqrt(x0))
        a, x0, n = 20.0, 10**6, 10
        rows = []
        for c in (8.0, 16.0):
            for rep in (1, 2, 3):
                rows.append((c, rep, a - math.log2(x0)))
        for rep in (1, 2, 3):
            rows.append((2**-8, rep, a - math.log2(x0 * 2**n)))
        interior = simulate_experiment(
            GrowthParams(10.0, 1.0),
            [2.0**k for k in range(-7, 0)],
            MeasurementConfig(a=a, sigma_eps=0.0, x0=x0, n_generations=n, replicates=3),
            spawn_rng(3),
        )
        dataset = plate([*rows, *zip(interior.concentration, interior.replicate, interior.ct)])
        pipeline = PipelineConfig(high_c_threshold=8.0, low_c_choice=2**-8, x0=x0)
        result = fit_dataset(dataset, pipeline)
        assert result.sigma_eps_hat == 0.0
        assert result.a_hat == pytest.approx(a, abs=1e-12)
        assert result.n_hat == pytest.approx(10.0, abs=1e-9)
        assert result.n_used == 10
        assert result.fit.alpha_hat == pytest.approx(10.0, rel=1e-2)
        assert result.fit.beta_hat == pytest.approx(1.0, rel=1e-2)
        assert result.fit.mic_hat == pytest.approx(0.1, rel=1e-2)

    def test_overflowing_covariance_is_null(self):
        # the growth-suppressed lanes spread by 1e153 around their level: the
        # calibration is exact, but the noise estimate of ~1.4e153 overflows
        # the covariance, so the fit is reported without one
        a, x0, spread = 20.0, 2**20, 1e153
        rows = [(2**-8, rep, a - 30.0) for rep in (1, 2)]
        for c in (8.0, 16.0):
            rows += [(c, 1, spread), (c, 2, -spread)]
        interior = simulate_experiment(
            GrowthParams(10.0, 1.0),
            [2.0**k for k in range(-7, 0)],
            MeasurementConfig(a=a, sigma_eps=0.0, x0=x0, n_generations=10, replicates=2),
            spawn_rng(3),
        )
        dataset = plate([*rows, *zip(interior.concentration, interior.replicate, interior.ct)])
        pipeline = PipelineConfig(high_c_threshold=8.0, low_c_choice=2**-8, x0=x0)
        result = fit_dataset(dataset, pipeline)
        assert result.a_hat == a and result.n_used == 10
        assert result.sigma_eps_hat == pytest.approx(math.sqrt(2) * spread)
        assert result.fit.mic_hat == pytest.approx(0.1, rel=1e-2)
        assert result.covariance is None and result.to_dict()["covariance"] is None

    def test_rising_mean_fails_on_the_fitted_slope(self):
        # the fitted lanes' means rise with concentration (0.5, 0.9, 1.3), so the
        # slope comes out negative: the error names beta_hat, not GrowthParams
        a, x0, n = 20.0, 10**4, 10
        lanes = [(2**-8, 2.0), (2**-3, 0.5), (2**-2, 0.9), (2**-1, 1.3), (2.0, 0.0), (4.0, 0.0)]
        rows = []
        for c, m in lanes:
            ct = a - math.log2(x0 * mean_total_from_mean(m, n))
            rows += [(c, 1, ct - 0.1), (c, 2, ct + 0.1)]
        pipeline = PipelineConfig(high_c_threshold=2.0, low_c_choice=2**-8, x0=x0)
        message = r"^fitted slope beta_hat -1\.239\d* is not positive: the offspring mean"
        with pytest.raises(SingularDesignError, match=message):
            fit_dataset(plate(rows), pipeline)

    def test_single_seed_realistic_run(self):
        dataset = synthetic_dataset(seed=11)
        pipeline = PipelineConfig(high_c_threshold=2.0, low_c_choice=2**-7, x0=10_000)
        result = fit_dataset(dataset, pipeline)
        assert result.covariance is not None
        band = 3 * math.sqrt(result.covariance.sigma2_alpha / 3)
        assert abs(result.fit.alpha_hat - 10.0) < band
        assert result.sigma_eps_hat == pytest.approx(0.2, abs=0.1)

    def test_diagnostics_cover_every_lane(self):
        dataset = synthetic_dataset(seed=4)
        pipeline = PipelineConfig(high_c_threshold=2.0, low_c_choice=2**-7, x0=10_000)
        result = fit_dataset(dataset, pipeline)
        lanes = dataset.concentrations()
        assert tuple(e.concentration for e in result.estimates) == lanes
        assert tuple(r.concentration for r in result.residuals) == lanes
        observed = {r.concentration: r.observed_mean_ct for r in result.residuals}
        for c in lanes:
            cts = dataset.cts_at(c)
            assert observed[c] == pytest.approx(sum(cts) / len(cts))

    def test_explicit_fit_concentrations(self):
        dataset = synthetic_dataset(seed=5)
        chosen = (2**-5, 2**-4, 2**-2, 2**-1)
        pipeline = PipelineConfig(
            high_c_threshold=2.0, low_c_choice=2**-7, x0=10_000, fit_concentrations=chosen
        )
        result = fit_dataset(dataset, pipeline)
        assert result.fit.used_concentrations == chosen
        assert all(reason == "not-selected" for _, reason in result.fit.excluded)

    def test_fit_concentrations_in_any_order(self):
        # the grid rule sees them sorted; the record keeps them as given
        dataset = synthetic_dataset(seed=5)
        chosen = (2**-5, 2**-4, 2**-2, 2**-1)
        ordered, reversed_ = (
            PipelineConfig(2.0, 2**-7, 10_000, fit_concentrations=lanes)
            for lanes in (chosen, chosen[::-1])
        )
        assert reversed_.fit_concentrations == chosen[::-1]
        assert fit_dataset(dataset, reversed_) == fit_dataset(dataset, ordered)

    @pytest.mark.parametrize("rel", [1e-10, -1e-10])
    def test_near_concentrations_select_their_lane(self, rel):
        # lanes named with a rounding difference, as retyped values carry
        dataset = synthetic_dataset(seed=5)
        chosen = (2**-5, 2**-4, 2**-2, 2**-1)
        exact = PipelineConfig(
            high_c_threshold=2.0, low_c_choice=2**-7, x0=10_000, fit_concentrations=chosen
        )
        near = PipelineConfig(
            high_c_threshold=2.0,
            low_c_choice=2**-7 * (1 + rel),
            x0=10_000,
            fit_concentrations=tuple(c * (1 + rel) for c in chosen),
        )
        result = fit_dataset(dataset, near)
        assert result.fit.used_concentrations == chosen
        assert result == fit_dataset(dataset, exact)

    def test_far_concentrations_are_still_rejected(self):
        dataset = synthetic_dataset(seed=5)
        far_low = PipelineConfig(
            high_c_threshold=2.0, low_c_choice=2**-7 * (1 + 1e-6), x0=10_000
        )
        with pytest.raises(InsufficientDataError, match="no lane"):
            fit_dataset(dataset, far_low)
        far_fit = PipelineConfig(
            high_c_threshold=2.0,
            low_c_choice=2**-7,
            x0=10_000,
            fit_concentrations=(2**-5 * (1 + 1e-6), 2**-4, 2**-2),
        )
        with pytest.raises(InvalidParameterError, match="have no estimates"):
            fit_dataset(dataset, far_fit)

    def test_missing_low_lane_is_an_error(self):
        dataset = synthetic_dataset(seed=6)
        pipeline = PipelineConfig(high_c_threshold=2.0, low_c_choice=2**-9, x0=10_000)
        with pytest.raises(InsufficientDataError, match="no lane"):
            fit_dataset(dataset, pipeline)

    def test_threshold_above_grid_is_an_error(self):
        dataset = synthetic_dataset(seed=6)
        pipeline = PipelineConfig(high_c_threshold=64.0, low_c_choice=2**-7, x0=10_000)
        with pytest.raises(InsufficientDataError, match=">="):
            fit_dataset(dataset, pipeline)

    def test_degenerate_low_lane_is_an_error(self):
        # a dataset whose "free growth" lane never grew: n rounds to zero
        rows = []
        for i, c in enumerate([0.5, 1.0, 2.0, 4.0]):
            for rep in (1, 2, 3):
                rows.append((c, rep, -math.log2(10**4)))
        dataset = plate(rows)
        pipeline = PipelineConfig(high_c_threshold=1.0, low_c_choice=0.5, x0=10_000)
        with pytest.raises(InsufficientDataError, match="implausible"):
            fit_dataset(dataset, pipeline)

    def test_corrupt_low_lane_is_an_error(self):
        # a wildly negative Ct implies thousands of generations
        rows = [(c, rep, -math.log2(10**4)) for c in (0.5, 1.0, 2.0) for rep in (1, 2)]
        rows += [(0.25, rep, -4000.0) for rep in (1, 2)]
        dataset = plate(rows)
        pipeline = PipelineConfig(high_c_threshold=0.5, low_c_choice=0.25, x0=10_000)
        with pytest.raises(InsufficientDataError, match="implausible"):
            fit_dataset(dataset, pipeline)

    def test_twelve_dilution_band_coverage(self):
        # across seeded experiments the fitted (alpha, beta) both land inside
        # the 3 sigma / sqrt(N) bands of the used design, evaluated at truth,
        # in at least 95% of runs
        truth = GrowthParams(10.0, 1.0)
        pipeline = PipelineConfig(high_c_threshold=2.0, low_c_choice=2**-7, x0=10_000)
        hits, runs = 0, 500
        for s in range(runs):
            result = fit_dataset(synthetic_dataset(seed=(1000 + s)), pipeline)
            cov = asymptotic_covariance(result.fit.used_concentrations, truth, 10, 0.2)
            ok_alpha = abs(result.fit.alpha_hat - 10.0) <= 3 * math.sqrt(cov.sigma2_alpha / 3)
            ok_beta = abs(result.fit.beta_hat - 1.0) <= 3 * math.sqrt(cov.sigma2_beta / 3)
            hits += ok_alpha and ok_beta
        assert hits >= 0.95 * runs

    def test_to_dict_shape(self):
        dataset = synthetic_dataset(seed=7)
        pipeline = PipelineConfig(high_c_threshold=2.0, low_c_choice=2**-7, x0=10_000)
        payload = fit_dataset(dataset, pipeline).to_dict()
        for key in (
            "alpha_hat",
            "beta_hat",
            "mic_hat",
            "a_hat",
            "sigma_eps_hat",
            "n_hat",
            "n_used",
            "estimates",
            "residuals",
            "covariance",
        ):
            assert key in payload


class TestEmitCurve:
    """The ``curve`` table: ``mean_from_concentration`` over ``log_spaced_grid``."""

    def test_unit_mean_at_the_mic(self):
        value = mean_from_concentration(GrowthParams(10.0, 1.0), mic(10.0, 1.0))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_approaches_free_growth_at_low_concentration(self):
        params = GrowthParams(10, 1)
        values = [mean_from_concentration(params, c) for c in log_spaced_grid(2**-9, 1.0, 50)]
        assert values[0] == pytest.approx(1.96, abs=0.005)
        assert values[-1] == pytest.approx(0.18, abs=0.005)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_log_spaced_grid_bounds(self):
        grid = log_spaced_grid(0.01, 1.0, 10)
        assert grid[0] == pytest.approx(0.01) and grid[-1] == pytest.approx(1.0)
        assert len(grid) == 10

    @pytest.mark.parametrize(
        "low, high, points, message",
        [
            # the span's bounds are a grid, under check_grid's rule and messages
            (1.0, 0.5, 10, "concentrations must be strictly increasing, got 1.0 then 0.5"),
            (0.0, 1.0, 10, "concentrations must be finite and positive, got 0.0"),
            (0.5, math.inf, 3, "concentrations must be finite and positive, got inf"),
            (math.nan, 1.0, 10, "concentrations must be finite and positive, got nan"),
            (1.0, 1.0 + 1e-10, 3,
             "concentrations 1.0 and 1.0000000001 are distinct but name the same lane"),
            (0.01, 1.0, 1, "points must be >= 2, got 1"),
        ],
        ids=["reversed", "zero-low", "infinite-high", "nan-low", "twin", "one-point"],
    )
    def test_log_spaced_grid_rejects_a_bad_span(self, low, high, points, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            log_spaced_grid(low, high, points)
