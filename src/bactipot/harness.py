"""Study drivers: Monte Carlo validation, design comparison, full pipeline.

Three workflows sit on top of the simulation and estimation layers:

- ``run_mc_study`` repeats an entire synthetic experiment many times and
  compares the empirical moments of the scaled estimation errors against the
  exact asymptotic covariance, which is how the estimator is validated.
- ``evaluate_designs`` ranks candidate concentration grids by their
  asymptotic variances without simulating anything.
- ``fit_dataset`` is the end-to-end pipeline for one dataset (real or
  synthetic): estimate the calibration constant and noise level from
  growth-suppressed lanes, the generation count from a free-growth lane,
  then the per-concentration offspring means and the dose-response fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .branching import GrowthParams, mean_from_concentration, mean_total_from_mean
from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    SingularDesignError,
)
from .estimators import (
    AsymptoticCovariance,
    FitResult,
    MeanEstimate,
    asymptotic_covariance,
    estimate_calibration,
    estimate_generations,
    estimate_noise_sd,
    estimate_offspring_mean,
    estimate_offspring_means,
    fit_dose_response,
    fit_dose_response_rows,
    round_generations,
)
from .measurement import CtDataset, MeasurementConfig, check_grid, synthesize_plates
from .seeding import spawn_rng

#: Repetitions per random stream in a Monte Carlo study. Block ``b`` holds
#: repetitions ``[b * MC_BLOCK, (b + 1) * MC_BLOCK)`` and draws everything
#: from ``spawn_rng(seed, b)``; changing it changes every report.
MC_BLOCK = 250


@dataclass(frozen=True)
class McStudyConfig:
    """One Monte Carlo study: repeat a synthetic experiment and refit.

    Attributes:
        params: True dose-response parameters.
        grid: Concentration design measured in every repetition.
        measurement: Per-experiment dimensions (x0, generations, replicates,
            noise, calibration constant).
        n_measurements: Number of independent repetitions, >= 2.
        seed: Master seed. Repetitions are grouped in consecutive blocks of
            ``MC_BLOCK``; block ``b`` draws from the stream derived from
            ``(seed, b)``, so a report depends on the seed alone.
    """

    params: GrowthParams
    grid: tuple[float, ...]
    measurement: MeasurementConfig
    n_measurements: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(self.grid))
        check_grid(self.grid)
        if self.n_measurements < 2:
            raise InvalidParameterError(
                f"n_measurements must be >= 2, got {self.n_measurements!r}"
            )


@dataclass(frozen=True)
class McStudyReport:
    """Aggregated Monte Carlo study results.

    Means are plain averages of the fitted parameters over successful
    repetitions. The variance entries are empirical moments of the
    sqrt(replicates)-scaled errors, directly comparable to the entries of
    ``theoretical``. Repetitions whose fit failed (for example every lane
    clamped at a boundary) are counted in ``failures`` and excluded from the
    moments.
    """

    mean_alpha: float
    mean_beta: float
    mean_theta: float
    emp_var_alpha: float
    emp_cov_alphabeta: float
    emp_var_beta: float
    emp_var_theta: float
    theoretical: AsymptoticCovariance
    failures: int
    n_measurements: int

    def to_dict(self) -> dict:
        return {
            "mean_alpha": self.mean_alpha,
            "mean_beta": self.mean_beta,
            "mean_theta": self.mean_theta,
            "emp_var_alpha": self.emp_var_alpha,
            "emp_cov_alphabeta": self.emp_cov_alphabeta,
            "emp_var_beta": self.emp_var_beta,
            "emp_var_theta": self.emp_var_theta,
            "theoretical": self.theoretical.to_dict(),
            "failures": self.failures,
            "n_measurements": self.n_measurements,
        }


@dataclass(frozen=True)
class PipelineConfig:
    """User choices for fitting one dataset.

    The thresholds are deliberately mandatory: which lanes count as
    growth-suppressed (for the calibration constant and noise level) and
    which lane is effectively untreated (for the generation count) are
    judgments about the particular dataset.

    Attributes:
        high_c_threshold: Lanes with concentration >= this estimate the
            calibration constant and noise level.
        low_c_choice: The lane treated as free growth for the
            generation-count estimate, matched by ``same_concentration``.
        x0: Initial live cells per well.
        fit_concentrations: Explicit lanes for the regression, matched by
            ``same_concentration``, or None to auto-select lanes whose
            offspring-mean estimate is informative.
    """

    high_c_threshold: float
    low_c_choice: float
    x0: int
    fit_concentrations: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.fit_concentrations is not None:
            object.__setattr__(
                self, "fit_concentrations", tuple(self.fit_concentrations)
            )
        if self.x0 < 1:
            raise InvalidParameterError(f"x0 must be >= 1, got {self.x0!r}")


@dataclass(frozen=True)
class CtResidual:
    """Observed versus model-predicted mean Ct for one lane."""

    concentration: float
    observed_mean_ct: float
    predicted_ct: float

    @property
    def residual(self) -> float:
        return self.observed_mean_ct - self.predicted_ct


@dataclass(frozen=True)
class PipelineFit:
    """Full pipeline output: fit plus every intermediate diagnostic."""

    fit: FitResult
    a_hat: float
    sigma_eps_hat: float
    n_hat: float
    n_used: int
    estimates: tuple[MeanEstimate, ...]
    residuals: tuple[CtResidual, ...]
    covariance: AsymptoticCovariance | None

    def to_dict(self) -> dict:
        return {
            **self.fit.to_dict(),
            "a_hat": self.a_hat,
            "sigma_eps_hat": self.sigma_eps_hat,
            "n_hat": self.n_hat,
            "n_used": self.n_used,
            "estimates": [
                {
                    "concentration": e.concentration,
                    "mu_hat": e.mu_hat,
                    "m_hat": e.m_hat,
                    "clamped": e.clamped,
                }
                for e in self.estimates
            ],
            "residuals": [
                {
                    "concentration": r.concentration,
                    "observed_mean_ct": r.observed_mean_ct,
                    "predicted_ct": r.predicted_ct,
                    "residual": r.residual,
                }
                for r in self.residuals
            ],
            "covariance": None if self.covariance is None else self.covariance.to_dict(),
        }


@dataclass(frozen=True)
class DesignEvaluation:
    """Asymptotic covariance of one candidate design; None marks it singular."""

    design: tuple[float, ...]
    covariance: AsymptoticCovariance | None
    best: bool

    @property
    def singular(self) -> bool:
        return self.covariance is None


# ---------------------------------------------------------------------------
# Monte Carlo study
# ---------------------------------------------------------------------------


def run_mc_study(config: McStudyConfig, workers: int = 1) -> McStudyReport:
    """Repeat the synthetic experiment and aggregate the refits.

    Each repetition synthesizes a plate on ``config.grid``, estimates the
    offspring mean per lane with the known calibration constant and
    generation count, and refits the dose-response parameters on the full
    grid. The study runs in this process as array work, one block of
    ``MC_BLOCK`` repetitions at a time: one ``simulate_batch`` call grows
    every well of the block, and the Ct synthesis, the growth-curve
    inversion and the least-squares fit each run once over the block's
    ``(repetitions, lanes)`` mean-Ct matrix. Block ``b`` draws from ``spawn_rng(seed, b)``,
    so the report is a function of ``config`` alone. Failed fits are
    counted, not raised.

    Args:
        config: Study definition.
        workers: Accepted for compatibility and must be >= 1; it does not
            change how the study runs or what it reports.

    Returns:
        Report with empirical moments of the scaled errors next to the
        exact asymptotic covariance of the design.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers!r}")
    m = config.measurement
    means = [mean_from_concentration(config.params, c) for c in config.grid]
    total = config.n_measurements
    results = np.empty((total, 3))
    for block, start in enumerate(range(0, total, MC_BLOCK)):
        stop = min(start + MC_BLOCK, total)
        rng = spawn_rng(config.seed, block)
        mean_cts = synthesize_plates(means, m, stop - start, rng).mean(axis=2)
        m_hats = estimate_offspring_means(mean_cts, m.a, m.x0, m.n_generations)
        results[start:stop] = fit_dose_response_rows(m_hats, config.grid)

    ok = ~np.isnan(results[:, 0])
    failures = int(total - ok.sum())
    alphas, betas, thetas = results[ok, 0], results[ok, 1], results[ok, 2]

    root_n = math.sqrt(m.replicates)
    scaled_a = root_n * (alphas - config.params.alpha)
    scaled_b = root_n * (betas - config.params.beta)
    true_theta = config.params.alpha ** (-1.0 / config.params.beta)
    scaled_t = root_n * (thetas - true_theta)

    theoretical = asymptotic_covariance(config.grid, config.params, m.n_generations, m.sigma_eps)
    return McStudyReport(
        mean_alpha=_mean(alphas),
        mean_beta=_mean(betas),
        mean_theta=_mean(thetas),
        emp_var_alpha=_var(scaled_a),
        emp_cov_alphabeta=_cov(scaled_a, scaled_b),
        emp_var_beta=_var(scaled_b),
        emp_var_theta=_var(scaled_t),
        theoretical=theoretical,
        failures=failures,
        n_measurements=total,
    )


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else math.nan


def _var(values: np.ndarray) -> float:
    return float(values.var(ddof=1)) if values.size > 1 else math.nan


def _cov(a: np.ndarray, b: np.ndarray) -> float:
    if a.size < 2:
        return math.nan
    return float(np.cov(a, b, ddof=1)[0, 1])


# ---------------------------------------------------------------------------
# Design comparison
# ---------------------------------------------------------------------------


def evaluate_designs(
    designs: Sequence[Sequence[float]],
    params: GrowthParams,
    n_generations: int,
    sigma_eps: float,
) -> list[DesignEvaluation]:
    """Asymptotic covariances for candidate designs, flagging the best one.

    "Best" minimizes the MIC variance among non-singular designs. Designs
    containing a lane whose offspring mean sits on the boundary are marked
    singular rather than failing the whole table.
    """
    rows: list[tuple[tuple[float, ...], AsymptoticCovariance | None]] = []
    for design in designs:
        key = tuple(design)
        try:
            rows.append((key, asymptotic_covariance(key, params, n_generations, sigma_eps)))
        except SingularDesignError:
            rows.append((key, None))
    best_index = -1
    best_value = math.inf
    for i, (_, cov) in enumerate(rows):
        if cov is not None and cov.sigma2_theta < best_value:
            best_index, best_value = i, cov.sigma2_theta
    return [
        DesignEvaluation(design, cov, best=(i == best_index))
        for i, (design, cov) in enumerate(rows)
    ]


# ---------------------------------------------------------------------------
# End-to-end dataset fitting
# ---------------------------------------------------------------------------


def fit_dataset(dataset: CtDataset, pipeline: PipelineConfig) -> PipelineFit:
    """Run the full estimation pipeline on one dataset.

    Stages: calibration constant and noise level from the lanes at or above
    ``high_c_threshold``; generation count from the ``low_c_choice`` lane,
    rounded for use and kept raw as a diagnostic; offspring-mean estimates
    for every lane; dose-response fit on the selected lanes; and the plug-in
    asymptotic covariance of the fitted design.

    Raises:
        InsufficientDataError: if the thresholds select no lanes, the
            generation estimate is degenerate, or too few lanes survive
            selection for the regression.
    """
    groups = dataset.grouped()
    if not groups:
        raise InsufficientDataError("dataset holds no observations")

    high = {c: cts for c, cts in groups.items() if c >= pipeline.high_c_threshold}
    if not high:
        raise InsufficientDataError(
            f"no lanes at concentration >= {pipeline.high_c_threshold!r}"
        )
    low_cts = dataset.cts_at(pipeline.low_c_choice)
    if not low_cts:
        raise InsufficientDataError(
            f"no lane at concentration {pipeline.low_c_choice!r}; grid is {sorted(groups)!r}"
        )

    pooled_high = [ct for cts in high.values() for ct in cts]
    a_hat = estimate_calibration(pooled_high, pipeline.x0)
    sigma_eps_hat = estimate_noise_sd(high.values())
    n_hat = estimate_generations(low_cts, a_hat, pipeline.x0)
    n_used = round_generations(n_hat) if math.isfinite(n_hat) else 0
    # 62 doublings already exhaust the supported count range
    if not 1 <= n_used <= 62:
        raise InsufficientDataError(
            f"generation estimate {n_hat} is implausible; check that the "
            "low-concentration lane really grew freely and the Ct values are sound"
        )

    estimates = tuple(
        estimate_offspring_mean(cts, a_hat, pipeline.x0, n_used, concentration=c)
        for c, cts in groups.items()
    )
    fit = fit_dose_response(estimates, concentrations=pipeline.fit_concentrations)

    fitted = GrowthParams(fit.alpha_hat, fit.beta_hat)
    residuals = tuple(
        CtResidual(
            concentration=c,
            observed_mean_ct=math.fsum(cts) / len(cts),
            predicted_ct=a_hat
            - math.log2(pipeline.x0)
            - math.log2(mean_total_from_mean(mean_from_concentration(fitted, c), n_used)),
        )
        for c, cts in groups.items()
    )
    try:
        covariance = asymptotic_covariance(
            fit.used_concentrations, fitted, n_used, sigma_eps_hat
        )
    except SingularDesignError:
        covariance = None
    return PipelineFit(
        fit=fit,
        a_hat=a_hat,
        sigma_eps_hat=sigma_eps_hat,
        n_hat=n_hat,
        n_used=n_used,
        estimates=estimates,
        residuals=residuals,
        covariance=covariance,
    )


# ---------------------------------------------------------------------------
# Fitted-curve tabulation
# ---------------------------------------------------------------------------


def emit_curve(params: GrowthParams, concentrations: Sequence[float]) -> list[tuple[float, float]]:
    """Tabulate the dose-response curve at the given concentrations.

    Output is ``(concentration, offspring mean)`` pairs, strictly decreasing
    in the mean as concentration grows.
    """
    return [(c, mean_from_concentration(params, c)) for c in concentrations]


def log_spaced_grid(low: float, high: float, points: int = 200) -> list[float]:
    """Logarithmically spaced concentrations spanning [low, high]."""
    if not (0.0 < low < high):
        raise InvalidParameterError(f"need 0 < low < high, got ({low!r}, {high!r})")
    if points < 2:
        raise InvalidParameterError(f"points must be >= 2, got {points!r}")
    return [float(c) for c in np.geomspace(low, high, points)]
