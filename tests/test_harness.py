"""Study drivers: Monte Carlo reports, design tables, pipeline fits."""

import math

import pytest

from bactipot import (
    CtDataset,
    asymptotic_covariance,
    CtObservation,
    DesignEvaluation,
    GrowthParams,
    InsufficientDataError,
    InvalidParameterError,
    McStudyConfig,
    MeasurementConfig,
    PipelineConfig,
    emit_curve,
    evaluate_designs,
    fit_dataset,
    log_spaced_grid,
    mic,
    run_mc_study,
    simulate_experiment,
    spawn_rng,
)
from bactipot.harness import MC_BLOCK

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

    def test_parallel_matches_serial(self):
        # spans a block boundary, so more than one stream is in play
        config = study_config(n_measurements=MC_BLOCK + 13)
        serial = run_mc_study(config, workers=1)
        assert all(run_mc_study(config, workers=w) == serial for w in (2, 3))

    def test_worker_count_is_validated(self):
        with pytest.raises(InvalidParameterError):
            run_mc_study(study_config(n_measurements=5), workers=0)

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
        assert not rows[0].singular and rows[1].singular
        assert rows[1].covariance is None and rows[0].best

    def test_singular_follows_the_covariance(self):
        [row] = evaluate_designs([REFERENCE_DESIGN], GrowthParams(10, 1), 10, 0.2)
        assert not row.singular
        assert DesignEvaluation(REFERENCE_DESIGN, None, best=False).singular
        with pytest.raises(TypeError):
            DesignEvaluation(REFERENCE_DESIGN, row.covariance, singular=True, best=False)

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
        observations = []
        for c in (8.0, 16.0):
            for rep in (1, 2, 3):
                observations.append(CtObservation(c, rep, a - math.log2(x0)))
        for rep in (1, 2, 3):
            observations.append(CtObservation(2**-8, rep, a - math.log2(x0 * 2**n)))
        interior = simulate_experiment(
            GrowthParams(10.0, 1.0),
            [2.0**k for k in range(-7, 0)],
            MeasurementConfig(a=a, sigma_eps=0.0, x0=x0, n_generations=n, replicates=3),
            spawn_rng(3),
        )
        dataset = CtDataset(tuple(observations) + interior.observations)
        pipeline = PipelineConfig(high_c_threshold=8.0, low_c_choice=2**-8, x0=x0)
        result = fit_dataset(dataset, pipeline)
        assert result.sigma_eps_hat == 0.0
        assert result.a_hat == pytest.approx(a, abs=1e-12)
        assert result.n_hat == pytest.approx(10.0, abs=1e-9)
        assert result.n_used == 10
        assert result.fit.alpha_hat == pytest.approx(10.0, rel=1e-2)
        assert result.fit.beta_hat == pytest.approx(1.0, rel=1e-2)
        assert result.fit.mic_hat == pytest.approx(0.1, rel=1e-2)

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
        observations = []
        for i, c in enumerate([0.5, 1.0, 2.0, 4.0]):
            for rep in (1, 2, 3):
                observations.append(CtObservation(c, rep, -math.log2(10**4)))
        dataset = CtDataset(tuple(observations))
        pipeline = PipelineConfig(high_c_threshold=1.0, low_c_choice=0.5, x0=10_000)
        with pytest.raises(InsufficientDataError, match="implausible"):
            fit_dataset(dataset, pipeline)

    def test_corrupt_low_lane_is_an_error(self):
        # a wildly negative Ct implies thousands of generations
        observations = [
            CtObservation(c, rep, -math.log2(10**4))
            for c in (0.5, 1.0, 2.0)
            for rep in (1, 2)
        ]
        observations += [CtObservation(0.25, rep, -4000.0) for rep in (1, 2)]
        dataset = CtDataset(tuple(observations))
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
    def test_unit_mean_at_the_mic(self):
        [(_, value)] = emit_curve(GrowthParams(10.0, 1.0), [mic(10.0, 1.0)])
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_approaches_free_growth_at_low_concentration(self):
        rows = emit_curve(GrowthParams(10, 1), log_spaced_grid(2**-9, 1.0, 50))
        values = [m for _, m in rows]
        assert values[0] == pytest.approx(1.96, abs=0.005)
        assert values[-1] == pytest.approx(0.18, abs=0.005)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_log_spaced_grid_bounds(self):
        grid = log_spaced_grid(0.01, 1.0, 10)
        assert grid[0] == pytest.approx(0.01) and grid[-1] == pytest.approx(1.0)
        assert len(grid) == 10
