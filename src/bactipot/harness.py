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
import os
import threading
from contextlib import suppress
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .branching import (
    GrowthParams,
    _check_integer,
    _check_x0,
    _checked_record,
    mean_from_concentration,
    mean_total_from_mean,
)
from .errors import InsufficientDataError, SingularDesignError
from .estimators import (
    AsymptoticCovariance,
    FitResult,
    MeanEstimate,
    _mean_ct,
    asymptotic_covariance,
    estimate_calibration,
    estimate_generations,
    estimate_noise_sd,
    estimate_offspring_mean,
    estimate_offspring_means,
    fit_dose_response,
    fit_dose_response_rows,
    mic,
    round_generations,
)
from .measurement import CtDataset, MeasurementConfig, _lane_at, check_grid, synthesize_plates
from .seeding import spawn_rng

if TYPE_CHECKING:
    import numpy as np

#: Repetitions per random stream in a Monte Carlo study. Block ``b`` holds
#: repetitions ``[b * MC_BLOCK, (b + 1) * MC_BLOCK)`` and draws everything
#: from ``spawn_rng(seed, b)``; changing it changes every report.
MC_BLOCK = 250
# rows inverted and fitted per pass, whole blocks to bound the temporaries
_FIT_CHUNK = 16 * MC_BLOCK


class McStudyConfig(_checked_record("params grid measurement n_measurements seed")):
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

    __slots__ = ()

    def __new__(
        cls,
        params: GrowthParams,
        grid: Sequence[float],
        measurement: MeasurementConfig,
        n_measurements: int,
        seed: int = 0,
    ):
        grid = tuple(grid)
        check_grid(grid)
        _check_integer("n_measurements", n_measurements, minimum=2)
        _check_integer("seed", seed)
        return super().__new__(cls, params, grid, measurement, n_measurements, seed)


class McStudyReport(NamedTuple):
    """Aggregated Monte Carlo study results.

    Means are plain averages of the fitted parameters over successful
    repetitions. The variance entries are empirical moments of the
    sqrt(replicates)-scaled errors, directly comparable to the entries of
    ``theoretical``. Repetitions whose fit failed (every lane clamped at a
    boundary, say, or a slope <= 0) are counted in ``failures`` and
    excluded from the moments.
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
        return {**self._asdict(), "theoretical": self.theoretical._asdict()}


class PipelineConfig(_checked_record("high_c_threshold low_c_choice x0 fit_concentrations")):
    """User choices for fitting one dataset.

    The thresholds are deliberately mandatory: which lanes count as
    growth-suppressed (for the calibration constant and noise level) and
    which lane is effectively untreated (for the generation count) are
    judgments about the particular dataset. ``check_grid`` must accept
    ``[low_c_choice, high_c_threshold]`` and the sorted fit lanes.

    Attributes:
        high_c_threshold: Lanes with concentration >= this estimate the
            calibration constant and noise level.
        low_c_choice: The lane treated as free growth for the
            generation-count estimate, matched by ``same_concentration``.
        x0: Initial live cells per well, in [1, ``MAX_COUNT``].
        fit_concentrations: Explicit lanes for the regression, matched by
            ``same_concentration``, or None to auto-select lanes whose
            offspring-mean estimate is informative.
    """

    __slots__ = ()

    def __new__(
        cls,
        high_c_threshold: float,
        low_c_choice: float,
        x0: int,
        fit_concentrations: Sequence[float] | None = None,
    ):
        check_grid([low_c_choice, high_c_threshold])
        if fit_concentrations is not None:
            fit_concentrations = tuple(fit_concentrations)
            check_grid(sorted(fit_concentrations))
        _check_x0(x0)
        return super().__new__(cls, high_c_threshold, low_c_choice, x0, fit_concentrations)


class CtResidual(NamedTuple):
    """Observed versus model-predicted mean Ct for one lane."""

    concentration: float
    observed_mean_ct: float
    predicted_ct: float

    @property
    def residual(self) -> float:
        return self.observed_mean_ct - self.predicted_ct


class PipelineFit(NamedTuple):
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
        payload = {
            **self.fit._asdict(),
            "excluded": [{"concentration": c, "reason": why} for c, why in self.fit.excluded],
            **self._asdict(),
            "estimates": [e._asdict() for e in self.estimates],
            "residuals": [{**r._asdict(), "residual": r.residual} for r in self.residuals],
            "covariance": None if self.covariance is None else self.covariance._asdict(),
        }
        del payload["fit"]
        return payload


class DesignEvaluation(NamedTuple):
    """Asymptotic covariance of one candidate design; None marks it singular."""

    design: tuple[float, ...]
    covariance: AsymptoticCovariance | None
    best: bool


# ---------------------------------------------------------------------------
# Monte Carlo study
# ---------------------------------------------------------------------------


def run_mc_study(config: McStudyConfig, workers: int = 1) -> McStudyReport:
    """Repeat the synthetic experiment and aggregate the refits.

    Each repetition synthesizes a plate on ``config.grid``, estimates the
    offspring mean per lane with the known calibration constant and
    generation count, and refits the dose-response parameters on the full
    grid, as array work in blocks of ``MC_BLOCK`` repetitions: one
    ``simulate_batch`` call grows every well of a block, and its Ct
    synthesis fills the block's rows of a ``(repetitions, lanes)`` mean-Ct
    matrix. Worker threads run the blocks, up to one per CPU and each held
    to its own; the caller starts and joins them, its CPU set never changed,
    then inverts and fits the rows, whole blocks per pass. Block ``b`` draws
    from ``spawn_rng(seed, b)``, so the report is a function of ``config``
    alone, on any CPU count. Failed fits (a slope <= 0 fails) are counted. A
    block whose synthesis raises fails the study, lowest block first, before
    any inversion; an inversion fault is raised after every block ran.

    Args:
        config: Study definition.
        workers: Accepted for compatibility, an integer >= 1; it does not
            change how the study runs or what it reports.

    Returns:
        Report with empirical moments of the scaled errors next to the
        exact asymptotic covariance of the design.
    """
    import numpy as np
    _check_integer("workers", workers, minimum=1)
    m = config.measurement
    # both raise for a design the floating-point range cannot hold, so before any block runs
    true_theta = mic(config.params.alpha, config.params.beta)
    theoretical = asymptotic_covariance(config.grid, config.params, m.n_generations, m.sigma_eps)
    means = [mean_from_concentration(config.params, c) for c in config.grid]
    total = config.n_measurements
    mean_cts = np.empty((total, len(config.grid)))
    n_blocks = -(-total // MC_BLOCK)
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    # one worker per CPU, held to it: left free, two can share a CPU for
    # hundreds of ms. Each takes the next block as it frees up, in order, so
    # every block below a failing one is out and none above it need start.
    blocks, hand_out = iter(range(n_blocks)), threading.Lock()
    errors: dict[int, Exception] = {}

    def run_blocks(cpu: int) -> None:
        # pid 0 is the calling thread on Linux; a refusal only costs speed
        with suppress(AttributeError, OSError):
            os.sched_setaffinity(0, {cpu})
        while True:
            with hand_out:
                block = None if errors else next(blocks, None)
            if block is None:
                return
            start, stop = block * MC_BLOCK, min((block + 1) * MC_BLOCK, total)
            try:
                rng = spawn_rng(config.seed, block)
                mean_cts[start:stop] = synthesize_plates(means, m, stop - start, rng).mean(axis=2)
            except Exception as exc:
                errors[block] = exc

    threads = [threading.Thread(target=run_blocks, args=(cpu,)) for cpu in sorted(allowed)[:n_blocks]]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]

    # after the join, so no worker's kernel waits on the interpreter lock for these
    results = np.empty((total, 3))
    for start in range(0, total, _FIT_CHUNK):
        rows = slice(start, start + _FIT_CHUNK)
        m_hats = estimate_offspring_means(mean_cts[rows], m.a, m.x0, m.n_generations)
        results[rows] = fit_dose_response_rows(m_hats, config.grid)
    ok = ~np.isnan(results[:, 1])  # a failed fit is NaN
    failures = int(total - ok.sum())
    alphas, betas, thetas = results[ok, 0], results[ok, 1], results[ok, 2]

    root_n = math.sqrt(m.replicates)
    with np.errstate(over="ignore", invalid="ignore"):  # a moment past the float range: inf or NaN
        scaled_a = root_n * (alphas - config.params.alpha)
        scaled_b = root_n * (betas - config.params.beta)
        scaled_t = root_n * (thetas - true_theta)
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
    import numpy as np
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
    rows = []
    for design in map(tuple, designs):
        try:
            rows.append((design, asymptotic_covariance(design, params, n_generations, sigma_eps)))
        except SingularDesignError:
            rows.append((design, None))
    # min keeps the first of equal variances
    best = min(
        (i for i, (_, cov) in enumerate(rows) if cov is not None),
        key=lambda i: rows[i][1].sigma2_theta,
        default=None,
    )
    return [DesignEvaluation(design, cov, i == best) for i, (design, cov) in enumerate(rows)]


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
        SingularDesignError: if the fitted slope ``beta_hat`` is not positive.
    """
    groups = dataset.grouped()
    if not groups:
        raise InsufficientDataError("dataset holds no observations")

    high = {c: cts for c, cts in groups.items() if c >= pipeline.high_c_threshold}
    if not high:
        raise InsufficientDataError(
            f"no lanes at concentration >= {pipeline.high_c_threshold!r}"
        )
    low_cts = _lane_at(groups, pipeline.low_c_choice)
    if not low_cts:
        raise InsufficientDataError(
            f"no lane at concentration {pipeline.low_c_choice!r}; grid is {sorted(groups)!r}"
        )

    pooled_high = [ct for cts in high.values() for ct in cts]
    a_hat = estimate_calibration(pooled_high, pipeline.x0)
    sigma_eps_hat = estimate_noise_sd(high.values())
    n_hat = estimate_generations(low_cts, a_hat, pipeline.x0)
    n_used = round_generations(n_hat)
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
            observed_mean_ct=_mean_ct(cts),
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


def log_spaced_grid(low: float, high: float, points: int = 200) -> list[float]:
    """Logarithmically spaced concentrations spanning [low, high], a grid by ``check_grid``."""
    check_grid([low, high])
    _check_integer("points", points, minimum=2)
    import numpy as np
    return [float(c) for c in np.geomspace(low, high, points)]
