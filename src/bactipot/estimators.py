"""Estimation chain: from Ct values to dose-response parameters and the MIC.

The chain runs in three stages, each consuming the previous one's output:

1. Per concentration, the mean Ct of the replicates gives the log2 of the
   estimated expected total count, ``a - log2(x0) - mean(cts)``, which is
   clamped into its feasible range and inverted through the death-or-divide
   growth curve to an offspring-mean estimate (``estimate_offspring_mean``).
2. Across concentrations, the identity
   ``log(2/m(c) - 1) = log(alpha) + beta * log(c)`` turns the dose-response
   law into a straight line, fit by ordinary least squares
   (``fit_dose_response``). The minimal inhibitory concentration is
   ``alpha ** (-1/beta)``, the concentration where the offspring mean
   crosses 1.
3. ``asymptotic_covariance`` evaluates the exact large-replicate covariance
   of the scaled estimation errors for any concentration design, which is
   what makes designs comparable before running an experiment.

Nuisance quantities (calibration constant, generation count, noise level)
have their own estimators taken from growth-suppressing and free-growth
lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .branching import (
    GrowthParams,
    _horner,
    mean_from_concentration,
    mean_total_derivative,
    mean_total_from_mean,
)
from .errors import InsufficientDataError, InvalidParameterError, SingularDesignError
from .measurement import same_concentration

_LOG2 = math.log(2.0)

#: Keep-band of the default lane selection of ``fit_dose_response``.
#: Estimates near 0 or 2 carry almost no dose-response information and blow
#: up the log transform, so they are excluded unless the caller explicitly
#: selects their concentrations.
DEFAULT_M_BAND = (0.05, 1.95)

_BISECTION_TOL = 1e-12
_BISECTION_MAX_ITER = 200

_CT_OVERFLOW = "Ct values are too large: their sums overflow the floating-point range"


@dataclass(frozen=True)
class MeanEstimate:
    """Per-concentration estimate of the expected total and offspring mean.

    Attributes:
        concentration: Lane concentration (NaN when estimated standalone).
        mu_hat: Estimated expected total count per initial cell, already
            clamped into [1, 2**n].
        m_hat: Offspring-mean estimate, the growth-curve inverse of
            ``mu_hat``.
        clamped: True when the raw estimate fell outside [1, 2**n] and was
            moved to the boundary; such estimates carry no interior
            information and are excluded from regression.
    """

    concentration: float
    mu_hat: float
    m_hat: float
    clamped: bool


@dataclass(frozen=True)
class FitResult:
    """Least-squares dose-response fit and the implied MIC.

    ``mic_hat`` is exactly ``alpha_hat ** (-1/beta_hat)``. ``excluded`` lists
    ``(concentration, reason)`` pairs for lanes left out of the regression.
    """

    alpha_hat: float
    beta_hat: float
    mic_hat: float
    used_concentrations: tuple[float, ...]
    excluded: tuple[tuple[float, str], ...] = ()

    def to_dict(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "beta_hat": self.beta_hat,
            "mic_hat": self.mic_hat,
            "used_concentrations": list(self.used_concentrations),
            "excluded": [
                {"concentration": c, "reason": reason} for c, reason in self.excluded
            ],
        }


@dataclass(frozen=True)
class AsymptoticCovariance:
    """Asymptotic covariance of the scaled estimation errors for one design.

    Entries are the limiting variances/covariance of
    ``sqrt(N) * (alpha_hat - alpha, beta_hat - beta)`` and the limiting
    variance of ``sqrt(N) * (mic_hat - mic)`` as the per-concentration
    replicate count N grows. ``k_factors`` holds the per-concentration noise
    gains the sums are built from.
    """

    sigma2_alpha: float
    sigma_alphabeta: float
    sigma2_beta: float
    sigma2_theta: float
    k_factors: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "sigma2_alpha": self.sigma2_alpha,
            "sigma_alphabeta": self.sigma_alphabeta,
            "sigma2_beta": self.sigma2_beta,
            "sigma2_theta": self.sigma2_theta,
            "k_factors": list(self.k_factors),
        }


def mic(alpha: float, beta: float) -> float:
    """Minimal inhibitory concentration implied by the dose-response law.

    The smallest concentration with offspring mean <= 1, which under
    ``m(c) = 2/(1 + alpha * c**beta)`` is ``alpha ** (-1/beta)``. Inherits
    whatever unit the input concentrations carry.
    """
    if not (alpha > 0.0) or not (beta > 0.0):
        raise InvalidParameterError(f"alpha and beta must be positive, got ({alpha!r}, {beta!r})")
    return alpha ** (-1.0 / beta)


def invert_mean_total(mu: float, n_generations: int) -> float:
    """Offspring mean whose death-or-divide growth curve reaches ``mu``.

    Inverts ``mean_total_from_mean(., n)``, which maps [0, 2] strictly
    increasingly onto [1, 2**n], by bisection to absolute tolerance 1e-12 in
    the mean. Exact at both endpoints.

    Raises:
        InvalidParameterError: if ``mu`` lies outside [1, 2**n]. Callers are
            expected to clamp noisy estimates first (see
            ``estimate_offspring_mean``).
    """
    _check_generation_count(n_generations)
    upper = 2.0**n_generations
    if math.isnan(mu) or mu < 1.0 or mu > upper:
        raise InvalidParameterError(
            f"mu must lie in [1, 2**{n_generations}] = [1, {upper}], got {mu!r}"
        )
    if mu == 1.0:
        return 0.0
    if mu == upper:
        return 2.0
    lo, hi = 0.0, 2.0
    for _ in range(_BISECTION_MAX_ITER):
        if hi - lo <= _BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        if mean_total_from_mean(mid, n_generations) < mu:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def invert_mean_totals(mu: np.ndarray, n_generations: int) -> np.ndarray:
    """``invert_mean_total`` applied to every element of an array, bit for bit.

    Every element starts from [0, 2] and halves its bracket in the same
    step, so all elements stop after the same number of steps; each step
    evaluates the growth curve with the scalar Horner recurrence, operation
    for operation, so the results equal the scalar ones exactly.

    Raises:
        InvalidParameterError: if some element lies outside [1, 2**n].
    """
    _check_generation_count(n_generations)
    mu = np.asarray(mu, dtype=float)
    upper = 2.0**n_generations
    if not np.all((mu >= 1.0) & (mu <= upper)):
        raise InvalidParameterError(
            f"mu must lie in [1, 2**{n_generations}] = [1, {upper}] everywhere"
        )
    lo = np.zeros_like(mu)
    hi = np.full_like(mu, 2.0)
    for _ in range(_BISECTION_MAX_ITER):
        if mu.size == 0 or np.max(hi - lo) <= _BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        # mean_total_from_mean(mid, n), one element per lane
        below = 0.5 * mid * _horner(repeat(1.0, n_generations), mid) + 1.0 < mu
        np.copyto(lo, mid, where=below)
        np.copyto(hi, mid, where=~below)
    m = 0.5 * (lo + hi)
    m[mu == 1.0] = 0.0
    m[mu == upper] = 2.0
    return m


def estimate_offspring_means(
    mean_cts: np.ndarray, a: float, x0: int, n_generations: int
) -> np.ndarray:
    """Offspring-mean estimates for an array of lane mean Ct values.

    The array form of ``estimate_offspring_mean``: each element's
    ``a - log2(x0) - mean_ct`` is clamped into [0, n] in log space and the
    total-count estimate ``2 ** (...)`` is inverted with
    ``invert_mean_totals``.
    """
    _check_generation_count(n_generations)
    log2_mu = _log2_mean_total(np.asarray(mean_cts, dtype=float), a, x0)
    mu = np.clip(np.power(2.0, np.clip(log2_mu, 0.0, n_generations)), 1.0, 2.0**n_generations)
    return invert_mean_totals(mu, n_generations)


def estimate_offspring_mean(
    cts: Sequence[float],
    a: float,
    x0: int,
    n_generations: int,
    concentration: float = math.nan,
) -> MeanEstimate:
    """Offspring-mean estimate for one lane of replicate Ct values.

    The raw total-count estimate ``2 ** (a - log2(x0) - mean(cts))`` is
    clamped into its feasible range [1, 2**n] (measurement noise can push it
    outside) and inverted through the growth curve.

    Args:
        cts: Replicate Ct values at one concentration.
        a: Calibration constant (known or previously estimated).
        x0: Initial live cells per well.
        n_generations: Generation count (known or previously estimated).
        concentration: Recorded on the result for downstream selection.
    """
    _check_generation_count(n_generations)
    log2_mu = _log2_mean_total(_mean_ct(cts), a, x0)
    # clamp in log space so absurd inputs cannot overflow the power
    if log2_mu < 0.0:
        mu_hat, clamped = 1.0, True
    elif log2_mu > n_generations:
        mu_hat, clamped = 2.0**n_generations, True
    else:
        raw = 2.0**log2_mu
        mu_hat = min(max(raw, 1.0), 2.0**n_generations)
        clamped = raw != mu_hat
    return MeanEstimate(
        concentration=concentration,
        mu_hat=mu_hat,
        m_hat=invert_mean_total(mu_hat, n_generations),
        clamped=clamped,
    )


def fit_dose_response(
    estimates: Sequence[MeanEstimate],
    concentrations: Sequence[float] | None = None,
) -> FitResult:
    """Least-squares fit of the dose-response parameters.

    Writing ``f_i = log(2/m_hat(c_i) - 1)`` and ``l_i = log(c_i)`` (natural
    logs), the model is the line ``f = log(alpha) + beta * l``, solved in
    closed form:

        beta_hat  = (K * sum(f*l) - sum(f) * L1) / (K * L2 - L1**2)
        alpha_hat = exp((sum(f) - beta_hat * L1) / K)

    Lane selection: boundary estimates (``m_hat`` of exactly 0 or 2, where
    the log transform is undefined) are always excluded. With
    ``concentrations=None`` the band filter keeps lanes whose ``m_hat``
    lies inside ``DEFAULT_M_BAND``; passing an explicit concentration
    subset overrides the band and uses exactly those lanes, each matched by
    ``measurement.same_concentration``.

    Raises:
        InsufficientDataError: if fewer than two usable lanes remain; the
            message names the excluded lanes and reasons.
    """
    ordered = sorted(estimates, key=lambda e: e.concentration)
    cs = [e.concentration for e in ordered]
    if any(not (c > 0.0) or math.isnan(c) for c in cs):
        raise InvalidParameterError("every estimate must carry a positive concentration")
    if any(b <= a for a, b in zip(cs, cs[1:])):
        raise InvalidParameterError("estimates must have distinct concentrations")

    subset = None if concentrations is None else list(concentrations)
    if subset is not None:
        missing = [c for c in subset if not any(same_concentration(c, e) for e in cs)]
        if missing:
            raise InvalidParameterError(
                f"requested concentrations {missing!r} have no estimates"
            )

    used: list[MeanEstimate] = []
    excluded: list[tuple[float, str]] = []
    for est in ordered:
        if subset is not None and not any(same_concentration(est.concentration, c) for c in subset):
            excluded.append((est.concentration, "not-selected"))
        elif est.m_hat <= 0.0 or est.m_hat >= 2.0:
            side = "zero" if est.m_hat <= 0.0 else "two"
            excluded.append((est.concentration, f"boundary-{side}"))
        elif subset is None and not (DEFAULT_M_BAND[0] <= est.m_hat <= DEFAULT_M_BAND[1]):
            excluded.append((est.concentration, "outside-band"))
        else:
            used.append(est)

    if len(used) < 2:
        raise InsufficientDataError(
            f"need >= 2 usable concentrations, have {len(used)}; excluded: {excluded!r}"
        )

    ls = [math.log(e.concentration) for e in used]
    fs = [math.log(2.0 / e.m_hat - 1.0) for e in used]
    k, l1, _, d = _design_sums(ls)
    sum_f = math.fsum(fs)
    sum_fl = math.fsum(f * l for l, f in zip(ls, fs))
    beta_hat = (k * sum_fl - sum_f * l1) / d
    if beta_hat == 0.0:
        raise SingularDesignError("flat response: fitted slope is exactly zero")
    try:
        alpha_hat = math.exp((sum_f - beta_hat * l1) / k)
        mic_hat = alpha_hat ** (-1.0 / beta_hat)
    except (OverflowError, ZeroDivisionError):  # ZeroDivisionError: alpha_hat underflowed to 0
        raise SingularDesignError(
            "degenerate fit: parameters leave the floating-point range"
        ) from None
    return FitResult(
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        mic_hat=mic_hat,
        used_concentrations=tuple(e.concentration for e in used),
        excluded=tuple(excluded),
    )


def fit_dose_response_rows(
    m_hats: np.ndarray, concentrations: Sequence[float]
) -> np.ndarray:
    """``fit_dose_response`` on the full grid, for many repetitions at once.

    Row ``r`` of ``m_hats`` holds one repetition's offspring-mean estimates
    at ``concentrations``. Each row is fit as
    ``fit_dose_response(estimates, concentrations=concentrations)`` would fit
    it: lanes whose estimate is exactly 0 or 2 are left out, the band filter
    does not apply, and the same closed-form least-squares line is solved
    with masked sums. The grid is taken as valid: its one caller,
    ``run_mc_study``, has it checked by ``McStudyConfig``.

    Returns:
        Array of shape ``(rows, 3)`` holding ``(alpha_hat, beta_hat,
        mic_hat)`` per row, NaN in rows where the scalar fit would raise
        (fewer than two usable lanes, a degenerate design, a flat slope or
        parameters that overflow).
    """
    cs = np.asarray(concentrations, dtype=float)
    m_hats = np.asarray(m_hats, dtype=float)
    used = (m_hats > 0.0) & (m_hats < 2.0)
    ls = np.where(used, np.log(cs), 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fs = np.where(used, np.log(2.0 / m_hats - 1.0), 0.0)
        k = used.sum(axis=1)
        l1 = ls.sum(axis=1)
        denominator = k * (ls * ls).sum(axis=1) - l1**2
        sum_f = fs.sum(axis=1)
        beta = (k * (fs * ls).sum(axis=1) - sum_f * l1) / denominator
        alpha = np.exp((sum_f - beta * l1) / k)
        theta = alpha ** (-1.0 / beta)
    fits = np.stack([alpha, beta, theta], axis=1)
    ok = (k >= 2) & (denominator > 0.0) & (beta != 0.0)
    ok &= np.isfinite(fits).all(axis=1)
    fits[~ok] = math.nan
    return fits


def k_factor(
    concentration: float, params: GrowthParams, n_generations: int, sigma_eps: float
) -> float:
    """Noise gain of one lane in the linearized regression.

    Scales the Ct measurement noise into the ``f = log(2/m - 1)`` coordinate:
    the chain rule through the growth-curve inversion contributes
    ``sigma_eps * mu_n(m) * log(2) / mu_n'(m)`` and the log transform
    contributes ``-2 / (m * (2 - m))``. Enters the covariance sums squared,
    so its sign never matters downstream.

    Raises:
        InvalidParameterError: if ``n_generations`` lies outside [1, 1023].
        SingularDesignError: if the offspring mean at this concentration is
            0 or 2, where the lane carries no regression information, or if
            the gain is not finite in double precision.
    """
    _check_generation_count(n_generations)
    if sigma_eps < 0.0:
        raise InvalidParameterError(f"sigma_eps must be >= 0, got {sigma_eps!r}")
    m = mean_from_concentration(params, concentration)
    if not (0.0 < m < 2.0):
        raise SingularDesignError(
            f"offspring mean {m} at concentration {concentration} is on the boundary"
        )
    gain = sigma_eps * mean_total_from_mean(m, n_generations) * _LOG2
    slope = mean_total_derivative(m, n_generations)
    k = -2.0 / (m * (2.0 - m)) * gain / slope
    # an overflowed slope would silently turn the gain into zero
    if not (math.isfinite(slope) and math.isfinite(k)):
        raise SingularDesignError(
            f"noise gain at concentration {concentration} over {n_generations} "
            "generations overflows the floating-point range"
        )
    return k


def asymptotic_covariance(
    concentrations: Sequence[float],
    params: GrowthParams,
    n_generations: int,
    sigma_eps: float,
) -> AsymptoticCovariance:
    """Exact asymptotic covariance of the fit for one concentration design.

    With ``A_i = L2 - L1*l_i`` and ``B_i = K*l_i - L1``:

        sigma2_alpha    = alpha**2 / D**2 * sum(k_i**2 * A_i**2)
        sigma_alphabeta = alpha    / D**2 * sum(k_i**2 * A_i * B_i)
        sigma2_beta     =        1 / D**2 * sum(k_i**2 * B_i**2)
        sigma2_theta    = theta**2 / (beta**2 * D**2)
                          * sum(k_i**2 * (A_i - (log(alpha)/beta) * B_i)**2)

    where ``D = K*L2 - L1**2``, ``theta`` is the MIC, and ``k_i`` comes from
    ``k_factor``. All four vanish when ``sigma_eps`` is zero.

    Raises:
        SingularDesignError: if a lane is on the boundary or an entry
            overflows the floating-point range.
    """
    cs = sorted(concentrations)
    if len(set(cs)) != len(cs):
        raise InvalidParameterError("design concentrations must be distinct")
    ks = [k_factor(c, params, n_generations, sigma_eps) for c in cs]
    sums = _covariance_sums(ks, [math.log(c) for c in cs], params.alpha, params.beta)
    return AsymptoticCovariance(*sums, k_factors=tuple(ks))


def _design_sums(ls: Sequence[float]) -> tuple[int, float, float, float]:
    """Design sums ``(K, L1, L2, D)`` of strictly increasing log-concentrations.

    ``L1`` and ``L2`` sum ``l`` and ``l**2``; ``D = K*L2 - L1**2`` is positive
    for distinct points by the Cauchy-Schwarz inequality.
    """
    if len(ls) < 2:
        raise InsufficientDataError(f"need at least 2 regression points, got {len(ls)}")
    if any(b <= a for a, b in zip(ls, ls[1:])):
        raise InvalidParameterError("log-concentrations must be strictly increasing")
    k = len(ls)
    l1 = math.fsum(ls)
    l2 = math.fsum(l * l for l in ls)
    d = k * l2 - l1**2
    if d <= 0.0:
        raise SingularDesignError("degenerate design: K*L2 - L1**2 is not positive")
    return k, l1, l2, d


def _covariance_sums(
    ks: Sequence[float], ls: Sequence[float], alpha: float, beta: float
) -> tuple[float, float, float, float]:
    n, l1, l2, d = _design_sums(ls)
    d2 = d**2
    a_terms = [l2 - l1 * l for l in ls]
    b_terms = [n * l - l1 for l in ls]
    try:
        s2a = alpha**2 / d2 * math.fsum(k * k * a * a for k, a in zip(ks, a_terms))
        sab = alpha / d2 * math.fsum(k * k * a * b for k, a, b in zip(ks, a_terms, b_terms))
        s2b = math.fsum(k * k * b * b for k, b in zip(ks, b_terms)) / d2
        theta = alpha ** (-1.0 / beta)
        ratio = math.log(alpha) / beta
        s2t = (
            theta**2
            / (beta**2 * d2)
            * math.fsum(k * k * (a - ratio * b) ** 2 for k, a, b in zip(ks, a_terms, b_terms))
        )
        sums = (s2a, sab, s2b, s2t)
        finite = all(math.isfinite(v) for v in sums)
    except (OverflowError, ValueError):  # ValueError: fsum of opposite infinities
        finite = False
    if not finite:
        raise SingularDesignError("covariance overflows the floating-point range")
    return sums


def estimate_calibration(cts: Sequence[float], x0: int) -> float:
    """Calibration constant from growth-suppressed lanes.

    At concentrations high enough that essentially no divisions happen, the
    total count stays at the inoculum, so ``mean(cts) + log2(x0)`` recovers
    the instrument constant. The caller asserts that the lanes qualify.
    """
    return _mean_ct(cts) + math.log2(x0)


def estimate_generations(cts: Sequence[float], a_hat: float, x0: int) -> float:
    """Generation count from a free-growth lane.

    With no antibiotic effect the population doubles every generation, so
    ``a_hat - log2(x0) - mean(cts)`` estimates the number of generations.
    Returned as a real number; round with ``round_generations`` for use as a
    generation count and keep the raw value as a diagnostic.
    """
    return _log2_mean_total(_mean_ct(cts), a_hat, x0)


def round_generations(value: float) -> int:
    """Nearest integer with half-way cases rounding up."""
    return int(math.floor(value + 0.5))


def estimate_noise_sd(groups: Iterable[Sequence[float]]) -> float:
    """Pooled within-group standard deviation of replicate Ct values.

    Groups are replicate sets sharing a concentration; singleton groups
    contribute nothing. The pooled variance is the within-group sum of
    squares divided by the summed degrees of freedom (unbiased).

    Raises:
        InsufficientDataError: if no group has two or more replicates.
        InvalidParameterError: if the sum of squares overflows.
    """
    ss = 0.0
    dof = 0
    for group in groups:
        values = list(group)
        if len(values) < 2:
            continue
        center = _mean_ct(values)
        try:
            ss += math.fsum((v - center) ** 2 for v in values)
        except OverflowError:
            raise InvalidParameterError(_CT_OVERFLOW) from None
        dof += len(values) - 1
    if dof == 0:
        raise InsufficientDataError("need at least one group with >= 2 replicates")
    if math.isinf(ss):
        raise InvalidParameterError(_CT_OVERFLOW)
    return math.sqrt(ss / dof)


def _mean_ct(cts: Sequence[float]) -> float:
    if len(cts) == 0:
        raise InvalidParameterError("need at least one Ct value")
    try:
        return math.fsum(cts) / len(cts)
    except OverflowError:
        raise InvalidParameterError(_CT_OVERFLOW) from None


def _log2_mean_total(mean_ct, a: float, x0: int):
    # the Ct model solved for log2 of the total per initial cell; float or array
    return a - math.log2(x0) - mean_ct


def _check_generation_count(n_generations: int) -> None:
    # 2**n must stay a finite float for the clamp ceiling and inversion
    if not 1 <= n_generations <= 1023:
        raise InvalidParameterError(
            f"n_generations must lie in [1, 1023], got {n_generations!r}"
        )
